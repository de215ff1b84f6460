import random

import pytest

from graphlifts import fixtures
from graphlifts.algebra import (
    AbelianGroup,
    BadElementText,
    ElementNotInGroup,
    SymmetricGroup,
    compose,
    fiber_action,
    inverse,
    parse_element,
    perm_matrix,
    power_product,
)
from graphlifts.graphs import degree_sequence, from_adjacency_matrix, from_edge_list
from graphlifts.lifts import (
    BadElement,
    BadGroupHeader,
    DuplicateEdge,
    InvalidSignature,
    MissingEdge,
    SignatureError,
    UnknownEdge,
    build_lift,
    constant_signature,
    emit_signature,
    make_signature,
    parse_signature,
)
from graphlifts.search import signature_from_rank
from graphlifts.spectra import charpoly
from graphlifts.algebra import poly_mul

from oracles import mat_mul

P3 = from_edge_list(3, [(1, 2), (2, 3)])
Z2 = AbelianGroup((2,))
Z3 = AbelianGroup((3,))


def random_base(rng, max_n=7):
    n = rng.randint(2, max_n)
    pool = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = [e for e in pool if rng.random() < 0.5] or [pool[0]]
    return from_edge_list(n, edges)


def test_make_signature_validates_domain():
    with pytest.raises(MissingEdge):
        make_signature(P3, Z2, {(1, 2): (0,)})
    with pytest.raises(UnknownEdge):
        make_signature(P3, Z2, {(1, 2): (0,), (2, 3): (0,), (1, 3): (0,)})
    with pytest.raises(ElementNotInGroup):
        make_signature(P3, Z2, {(1, 2): (0,), (2, 3): (2,)})
    # bool is an int subclass, but emit_signature would write "True", which
    # parse_signature cannot read back
    with pytest.raises(ElementNotInGroup):
        make_signature(P3, Z2, {(1, 2): (True,), (2, 3): (0,)})


def test_make_signature_rejects_non_integer_points():
    # (2.0, True) sorts equal to (1, 2), but format_element indexes with it
    k2 = from_edge_list(2, [(1, 2)])
    with pytest.raises(ElementNotInGroup):
        make_signature(k2, SymmetricGroup(2), {(1, 2): (2.0, True)})


def test_equal_signatures_hash_alike():
    by_hand = make_signature(
        fixtures.BASE_G,
        Z2,
        {(1, 2): (1,), (2, 3): (0,), (2, 4): (1,), (3, 4): (0,), (3, 5): (1,), (4, 5): (0,), (5, 6): (1,)},
    )
    by_rank = signature_from_rank(fixtures.BASE_G, Z2, 85)
    assert by_hand == by_rank
    assert len({by_hand, by_rank}) == 1


def test_each_signature_rule_has_one_message_through_every_entry_point():
    k2 = from_edge_list(2, [(1, 2)])
    for call in (
        lambda: make_signature(k2, Z2, {(1, 2): (2,)}),
        lambda: build_lift(k2, constant_signature(k2, Z2, (2,))),
        lambda: compose(Z2, (2,), (0,)),
        lambda: inverse(Z2, (2,)),
        lambda: fiber_action(Z2, (2,)),
        lambda: power_product(Z2, [((0,), 1), ((2,), -1)]),
    ):
        with pytest.raises(ElementNotInGroup) as exc:
            call()
        assert str(exc.value) == "(2,) is not an element of Z2"
    # a signature file adds the line number, and parse_element says the same
    with pytest.raises(BadElement) as exc:
        parse_signature("group Z2\n1 2 : 2\n", k2)
    assert str(exc.value) == "line 2: (2,) is not an element of Z2"
    with pytest.raises(BadElementText) as exc:
        parse_element(Z2, "(2)")
    assert str(exc.value) == "(2,) is not an element of Z2"
    for call in (
        lambda: make_signature(P3, Z2, {(1, 2): (0,)}),
        lambda: parse_signature("group Z2\n1 2 : 0\n", P3),
    ):
        with pytest.raises(MissingEdge) as exc:
            call()
        assert str(exc.value) == "edge (2, 3) has no assignment"


def test_signature_get_orients_edges():
    s = make_signature(P3, Z3, {(1, 2): (1,), (2, 3): (2,)})
    assert s.get(1, 2) == (1,)
    assert s.get(2, 1) == (1,)
    assert s.is_abelian()


def test_signature_text_roundtrip():
    s = make_signature(P3, Z3, {(1, 2): (1,), (2, 3): (0,)})
    assert parse_signature(emit_signature(s), P3) == s
    s3 = SymmetricGroup(3)
    sig = make_signature(
        P3, s3, {(1, 2): parse_element(s3, "(1,2,3)"), (2, 3): parse_element(s3, "id")}
    )
    assert parse_signature(emit_signature(sig), P3) == sig


def test_parse_signature_errors_carry_line_numbers():
    with pytest.raises(BadGroupHeader):
        parse_signature("1 2 : 0\n", P3)
    with pytest.raises(BadGroupHeader):
        parse_signature("group Q8\n1 2 : 0\n", P3)
    with pytest.raises(DuplicateEdge) as exc:
        parse_signature("group Z2\n1 2 : 0\n1 2 : 1\n2 3 : 0\n", P3)
    assert "line 3" in str(exc.value)
    with pytest.raises(SignatureError):
        parse_signature("group Z2\n2 1 : 0\n2 3 : 0\n", P3)
    with pytest.raises(UnknownEdge):
        parse_signature("group Z2\n1 3 : 0\n", P3)
    with pytest.raises(MissingEdge):
        parse_signature("group Z2\n1 2 : 0\n", P3)
    with pytest.raises(SignatureError):
        parse_signature("group Z2\n1 2 : boom\n2 3 : 0\n", P3)


def test_build_lift_counts():
    rng = random.Random(5)
    for _ in range(25):
        base = random_base(rng)
        gr = rng.choice([Z2, Z3, AbelianGroup((2, 2)), SymmetricGroup(3)])
        sig = make_signature(
            base, gr, {e: rng.choice(_elements(gr)) for e in base.edges}
        )
        lift = build_lift(base, sig)
        d = gr.fiber_size()
        assert lift.n == base.n * d
        assert len(lift.edges) == len(base.edges) * d
        base_deg = {v: deg for v, deg in enumerate(_degrees(base), start=1)}
        lift_deg = _degrees(lift)
        for i in range(1, base.n + 1):
            for a in range(d):
                assert lift_deg[(i - 1) * d + a] == base_deg[i]


def _elements(gr):
    if isinstance(gr, AbelianGroup):
        return gr.elements()
    from itertools import permutations

    return [tuple(p) for p in permutations(range(1, gr.degree + 1))]


def _degrees(g):
    deg = [0] * g.n
    for i, j in g.edges:
        deg[i - 1] += 1
        deg[j - 1] += 1
    return deg


def test_identity_signature_gives_disjoint_copies():
    for gr in (Z2, Z3, AbelianGroup((2, 2))):
        lift = build_lift(P3, constant_signature(P3, gr, gr.identity()))
        d = gr.fiber_size()
        assert charpoly(lift) == _poly_pow(charpoly(P3), d)


def _poly_pow(p, k):
    out = [1]
    for _ in range(k):
        out = poly_mul(out, p)
    return out


def test_build_lift_vertex_order_is_fiber_major():
    # single edge, Z2, voltage 1: (1,a) pairs with (2, a+1)
    k2 = from_edge_list(2, [(1, 2)])
    s = make_signature(k2, Z2, {(1, 2): (1,)})
    lift = build_lift(k2, s)
    assert lift.edges == ((1, 4), (2, 3))


def test_build_lift_rejects_wrong_base():
    s = make_signature(P3, Z2, {(1, 2): (0,), (2, 3): (1,)})
    other = from_edge_list(3, [(1, 2), (1, 3)])
    with pytest.raises(InvalidSignature):
        build_lift(other, s)


def test_symmetric_voltage_lift_uses_natural_action():
    s3 = SymmetricGroup(3)
    k2 = from_edge_list(2, [(1, 2)])
    sig = make_signature(k2, s3, {(1, 2): parse_element(s3, "(1,2,3)")})
    lift = build_lift(k2, sig)
    # fiber size is 3, not 6: vertices 1..3 over v1, 4..6 over v2
    assert lift.n == 6
    assert lift.edges == ((1, 5), (2, 6), (3, 4))
    for gr in (s3, SymmetricGroup(4)):
        k = gr.degree
        elems = _elements(gr)
        assert len(elems) == gr.order()
        for g in elems:
            # position a - 1 goes to g(a) - 1, and (1, a) is joined to (2, g(a))
            assert fiber_action(gr, g) == [g[a] - 1 for a in range(k)]
            lift = build_lift(k2, make_signature(k2, gr, {(1, 2): g}))
            assert lift.edges == tuple(sorted((a, k + g[a - 1]) for a in range(1, k + 1)))
            for h in elems[::5]:
                # the action respects "apply g, then h"
                gh = fiber_action(gr, compose(gr, g, h))
                assert gh == [fiber_action(gr, h)[b] for b in fiber_action(gr, g)]
                m = perm_matrix(gr, compose(gr, g, h))
                assert m == mat_mul(perm_matrix(gr, g), perm_matrix(gr, h))
        with pytest.raises(ElementNotInGroup):
            fiber_action(gr, tuple(range(k)))


def test_fixture_lift_matches_transcription_exactly():
    built = build_lift(fixtures.BASE_G, fixtures.EXAMPLE_SIGNATURE_G)
    assert built == from_adjacency_matrix(fixtures.LIFT_MATRIX_G)


def test_fixture_degree_sequences():
    assert degree_sequence(fixtures.BASE_G) == [3, 3, 3, 3, 1, 1]
    assert degree_sequence(fixtures.BASE_H) == [5, 2, 2, 2, 2, 1]
