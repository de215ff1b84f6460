import random

import pytest

from graphlifts import fixtures
from graphlifts.algebra import AbelianGroup, poly_mul, poly_text
from graphlifts.graphs import from_edge_list
from graphlifts.isomorphism import are_isomorphic, relabeled
from graphlifts.lifts import NonAbelianSignature, build_lift, constant_signature, make_signature
from graphlifts.spectra import (
    PreconditionFailed,
    charpoly,
    cospectral,
    verify_constant_lift_lemma,
    verify_decomposition,
)

Z2 = AbelianGroup((2,))

STAR4 = from_edge_list(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
C4_PLUS_K1 = from_edge_list(5, [(1, 2), (2, 3), (3, 4), (1, 4)])


def random_base(rng, max_n=8, lo=2):
    n = rng.randint(lo, max_n)
    pool = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = [e for e in pool if rng.random() < 0.5] or [pool[0]]
    return from_edge_list(n, edges)


def test_charpoly_known_values():
    p3 = from_edge_list(3, [(1, 2), (2, 3)])
    assert charpoly(p3) == [0, -2, 0, 1]
    assert poly_text(charpoly(p3)) == "[1, 0, -2, 0]"
    k2 = from_edge_list(2, [(1, 2)])
    assert charpoly(k2) == [-1, 0, 1]
    empty = from_edge_list(3, [])
    assert charpoly(empty) == [0, 0, 0, 1]


def test_charpoly_classic_cospectral_pair():
    assert poly_text(charpoly(STAR4)) == "[1, 0, -4, 0, 0, 0]"
    assert charpoly(STAR4) == charpoly(C4_PLUS_K1)
    assert cospectral(STAR4, C4_PLUS_K1)
    assert not are_isomorphic(STAR4, C4_PLUS_K1)[0]


def test_charpoly_coefficient_identities():
    rng = random.Random(99)
    for _ in range(60):
        g = random_base(rng, max_n=8, lo=3)
        p = charpoly(g)
        n = g.n
        assert p[n] == 1
        assert p[n - 1] == 0
        assert p[n - 2] == -len(g.edges)
        adj = {frozenset(e) for e in g.edges}
        triangles = sum(
            1
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            for k in range(j + 1, n + 1)
            if {frozenset((i, j)), frozenset((j, k)), frozenset((i, k))} <= adj
        )
        assert p[n - 3] == -2 * triangles


def test_cospectral_rejects_different_sizes():
    a = from_edge_list(2, [(1, 2)])
    b = from_edge_list(3, [(1, 2)])
    assert not cospectral(a, b)


def test_isomorphic_implies_cospectral():
    rng = random.Random(4)
    for _ in range(30):
        g = random_base(rng, max_n=7)
        perm = list(range(1, g.n + 1))
        rng.shuffle(perm)
        h = relabeled(g, tuple(perm))
        assert cospectral(g, h)


def test_decomposition_on_random_signatures():
    rng = random.Random(11)
    groups = [Z2, AbelianGroup((3,)), AbelianGroup((2, 2))]
    for _ in range(25):
        base = random_base(rng, max_n=6)
        gr = rng.choice(groups)
        sig = make_signature(base, gr, {e: rng.choice(gr.elements()) for e in base.edges})
        report = verify_decomposition(base, sig)
        assert report.holds
        assert report.lift_poly == report.product_poly


def test_decomposition_requires_abelian():
    with pytest.raises(NonAbelianSignature):
        verify_decomposition(fixtures.BASE_G, fixtures.EXAMPLE_SIGNATURE_G)


def test_constant_identity_lift_power_law():
    rng = random.Random(3)
    for orders in ((2,), (3,), (2, 2)):
        gr = AbelianGroup(orders)
        g = random_base(rng, max_n=6)
        lift = build_lift(g, constant_signature(g, gr, gr.identity()))
        expect = [1]
        for _ in range(gr.order()):
            expect = poly_mul(expect, charpoly(g))
        assert charpoly(lift) == expect


def test_bipartite_double_factorization():
    rng = random.Random(8)
    for _ in range(20):
        g = random_base(rng, max_n=7)
        doubled = build_lift(g, constant_signature(g, Z2, (1,)))
        p = charpoly(g)
        n = g.n
        minus = [c * (-1) ** (n - i) for i, c in enumerate(p)]
        assert charpoly(doubled) == poly_mul(p, minus)


def test_constant_lift_lemma_on_known_pairs():
    assert verify_constant_lift_lemma(fixtures.BASE_G, fixtures.BASE_H, Z2, (1,))
    assert verify_constant_lift_lemma(STAR4, C4_PLUS_K1, Z2, (1,))


def test_constant_lift_lemma_preconditions():
    p3 = from_edge_list(3, [(1, 2), (2, 3)])
    k3 = from_edge_list(3, [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(PreconditionFailed):
        verify_constant_lift_lemma(p3, k3, Z2, (1,))  # not cospectral
    z4 = AbelianGroup((4,))
    with pytest.raises(PreconditionFailed):
        verify_constant_lift_lemma(STAR4, C4_PLUS_K1, z4, (1,))  # element not an involution
    assert verify_constant_lift_lemma(STAR4, C4_PLUS_K1, z4, (2,))

