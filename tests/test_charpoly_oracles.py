"""The sparse Berkowitz kernel and the modular character product against
test-local copies of the computations they replaced: the dense
Samuelson-Berkowitz recursion and the character product taken in the
cyclotomic ring Z[x]/(Phi_K)."""

import random

import pytest

from graphlifts.algebra import AbelianGroup, berkowitz_charpoly, characters, cyclo_int, poly_mul
from graphlifts.graphs import adjacency_matrix, from_edge_list
from graphlifts.lifts import build_lift, make_signature
from graphlifts.spectra import verify_decomposition


def dense_berkowitz(matrix, zero=0, one=1):
    """The dense recursion: every trailing block multiplied out in full."""

    def dot(xs, ys):
        acc = zero
        for x, y in zip(xs, ys):
            acc = acc + x * y
        return acc

    n = len(matrix)
    coeffs = [one]
    for k in range(n - 1, -1, -1):
        m = n - 1 - k
        col = [one, zero - matrix[k][k]]
        if m:
            r_row = matrix[k][k + 1 :]
            b_rows = [matrix[i][k + 1 :] for i in range(k + 1, n)]
            v = [matrix[i][k] for i in range(k + 1, n)]
            for step in range(m):
                col.append(zero - dot(r_row, v))
                if step + 1 < m:
                    v = [dot(row, v) for row in b_rows]
        width = len(coeffs)
        new = []
        for i in range(width + 1):
            acc = zero
            for j in range(max(0, i - (len(col) - 1)), min(i, width - 1) + 1):
                acc = acc + col[i - j] * coeffs[j]
            new.append(acc)
        coeffs = new
    coeffs.reverse()
    return coeffs


def _random_matrix(rng, n, density, symmetric, lo=-3, hi=3):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i if symmetric else 0, n):
            if rng.random() < density:
                m[i][j] = rng.randint(lo, hi)
                if symmetric:
                    m[j][i] = m[i][j]
    return m


def _random_base(rng, n, p):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return from_edge_list(n, [e for e in pairs if rng.random() < p])


def _random_signature(base, gr, rng):
    return make_signature(base, gr, {e: rng.choice(gr.elements()) for e in base.edges})


def _lift_matrices(rng):
    cases = [(7, 0.6, (12,)), (7, 0.5, (3, 3)), (6, 0.6, (10,)), (6, 0.7, (2, 4)), (5, 0.8, (2, 2, 2))]
    for n, p, orders in cases:
        base = _random_base(rng, n, p)
        yield adjacency_matrix(build_lift(base, _random_signature(base, AbelianGroup(orders), rng)))


def test_sparse_kernel_equals_dense_recursion_on_random_matrices():
    rng = random.Random(61)
    for _ in range(300):
        n = rng.randint(0, 12)
        m = _random_matrix(rng, n, rng.choice((0.1, 0.3, 1.0)), rng.random() < 0.5)
        assert berkowitz_charpoly(m) == dense_berkowitz(m), m
    for n, density, symmetric in ((30, 1.0, False), (30, 1.0, True), (84, 0.05, False), (84, 0.05, True)):
        m = _random_matrix(rng, n, density, symmetric)
        for i in range(n):
            m[i][i] = rng.choice((-2, -1, 1, 2))
        assert berkowitz_charpoly(m) == dense_berkowitz(m), (n, density, symmetric)


def test_sparse_kernel_equals_dense_recursion_on_lifts():
    rng = random.Random(62)
    for m in _lift_matrices(rng):
        assert berkowitz_charpoly(m) == dense_berkowitz(m), len(m)


def test_sparse_kernel_on_triangular_matrices():
    # Below the diagonal there is nothing, so every Krylov vector is empty.
    rng = random.Random(63)
    for n in (1, 5, 20):
        m = _random_matrix(rng, n, 0.5, False)
        upper = [[x if j >= i else 0 for j, x in enumerate(row)] for i, row in enumerate(m)]
        expect = [1]
        for i in range(n):
            expect = poly_mul(expect, [-upper[i][i], 1])
        assert berkowitz_charpoly(upper) == expect
        assert berkowitz_charpoly([list(col) for col in zip(*upper)]) == expect


def cyclotomic_product(base, s):
    """The character product in Z[x]/(Phi_K), as verify_decomposition took it
    before: one cyclotomic charpoly per character, multiplied in the ring,
    every coefficient reduced to an integer."""
    k = s.group.exponent()
    zero, one = cyclo_int(k, 0), cyclo_int(k, 1)
    product = [one]
    for chi in characters(s.group):
        ax = [[zero] * base.n for _ in range(base.n)]
        for (i, j), g in s.assignments.items():
            ax[i - 1][j - 1] = chi.value(g)
            ax[j - 1][i - 1] = chi.inverse_value(g)
        factor = dense_berkowitz(ax, zero=zero, one=one)
        new = [zero] * (len(product) + len(factor) - 1)
        for a, ca in enumerate(product):
            for b, cb in enumerate(factor):
                new[a + b] = new[a + b] + ca * cb
        product = new
    ints = [c.as_integer() for c in product]
    assert None not in ints
    return ints


GROUPS = [AbelianGroup((k,)) for k in range(1, 13)] + [AbelianGroup((2, 2, 2)), AbelianGroup((3, 3))]


@pytest.mark.parametrize("gr", GROUPS, ids=lambda gr: "x".join(f"Z{k}" for k in gr.orders))
def test_modular_product_equals_cyclotomic_product(gr):
    rng = random.Random(f"modular/{gr.orders}")
    bases = [_random_base(rng, rng.randint(1, 7), p) for p in (0.0, 0.25, 0.5, 0.8)]
    bases.append(from_edge_list(7, [(1, 2), (2, 3), (3, 1), (4, 5)]))  # vertices 6, 7 isolated
    bases.append(from_edge_list(1, []))
    for base in bases:
        s = _random_signature(base, gr, rng)
        report = verify_decomposition(base, s)
        expect = cyclotomic_product(base, s)
        lift_poly = dense_berkowitz(adjacency_matrix(build_lift(base, s)))
        assert report.product_poly == expect, (base.edges, s.assignments)
        assert report.lift_poly == lift_poly
        assert lift_poly == expect
        assert report.holds


def test_modular_product_on_the_largest_bound():
    # K7 over Z12: N = 84, maximum degree 6, coefficient bound 7^84.
    rng = random.Random(84)
    base = from_edge_list(7, [(i, j) for i in range(1, 8) for j in range(i + 1, 8)])
    s = _random_signature(base, AbelianGroup((12,)), rng)
    report = verify_decomposition(base, s)
    assert report.product_poly == cyclotomic_product(base, s)
    assert report.lift_poly == dense_berkowitz(adjacency_matrix(build_lift(base, s)))
    assert report.holds
    assert max(abs(c) for c in report.product_poly) > 2**64
