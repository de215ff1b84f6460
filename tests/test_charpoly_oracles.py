"""The sparse Berkowitz kernel and the modular character product against
test-local copies of the computations they replaced: the dense
Samuelson-Berkowitz recursion and the character product taken in the
cyclotomic ring Z[x]/(Phi_K), and the one factor it takes per pair of
conjugate characters. The closed-walk lift charpoly against Berkowitz on
the lift that build_lift makes."""

import random

import pytest

from graphlifts import spectra
from graphlifts.algebra import (
    AbelianGroup,
    berkowitz_charpoly,
    inverse,
    parse_group,
    poly_mul,
)
from graphlifts.graphs import Graph, adjacency_matrix, degree_sequence, from_edge_list, neighbor_lists
from graphlifts.lifts import NonAbelianSignature, build_lift, make_signature
from graphlifts.spectra import charpoly, lift_charpoly, verify_decomposition

from oracles import characters, cyclo_int, cyclotomic_poly


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


# The group pool of the decompose-random benchmark workload.
LIFT_GROUPS = [
    AbelianGroup(orders)
    for orders in ((2,), (3,), (4,), (5,), (2, 2), (6,), (2, 4), (3, 3), (2, 2, 2), (12,))
]


def _group_id(gr):
    return "x".join(f"Z{k}" for k in gr.orders)


@pytest.mark.parametrize("gr", LIFT_GROUPS, ids=_group_id)
def test_lift_charpoly_equals_berkowitz(gr):
    rng = random.Random(f"lift-charpoly/{gr.orders}")
    bases = [_random_base(rng, n, 0.5) for n in range(2, 8)]
    bases.append(from_edge_list(7, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6)]))  # 7 isolated
    bases.append(from_edge_list(6, [(1, 2), (2, 3), (3, 4), (4, 1), (5, 6)]))
    bases += [from_edge_list(1, []), from_edge_list(3, [])]
    for base in bases:
        s = _random_signature(base, gr, rng)
        poly = lift_charpoly(base, s)
        lift = build_lift(base, s)
        assert poly == berkowitz_charpoly(adjacency_matrix(lift)), base.edges
        if not base.edges:
            assert poly == [0] * lift.n + [1]
    empty = from_edge_list(0, [])
    assert lift_charpoly(empty, make_signature(empty, gr, {})) == [1]


def test_lift_charpoly_over_the_trivial_group_is_the_base_charpoly():
    # Over Z1 every vertex is its own fibre, so the walk from every start
    # must give the Berkowitz charpoly of the base itself.
    rng = random.Random(77)
    z1 = AbelianGroup((1,))
    for _ in range(200):
        base = _random_base(rng, rng.randint(0, 12), rng.random())
        assert lift_charpoly(base, _random_signature(base, z1, rng)) == charpoly(base), base.edges


def test_lift_charpoly_refuses_a_non_abelian_signature():
    p3 = from_edge_list(3, [(1, 2), (2, 3)])
    s3 = parse_group("S3")
    s = make_signature(p3, s3, {e: s3.identity() for e in p3.edges})
    with pytest.raises(NonAbelianSignature, match="^lift_charpoly requires an abelian group$"):
        lift_charpoly(p3, s)


def _components(graph: Graph) -> list[int]:
    """Each vertex's component, as the least 0-indexed vertex in it."""
    adj, comp = neighbor_lists(graph), list(range(graph.n))
    for s in range(graph.n):
        if comp[s] == s:
            stack = [s]
            while stack:
                for v in adj[stack.pop()]:
                    if comp[v] != s:
                        comp[v] = s
                        stack.append(v)
    return comp


def _start_components(base, s):
    """The lift, and the component of each fibre's first vertex."""
    lift = build_lift(base, s)
    comp = _components(lift)
    return lift, [comp[v] for v in range(0, lift.n, s.group.order())]


def test_lift_charpoly_with_fibre_starts_in_different_components():
    # A disconnected base, and a connected path whose voltage on (1, 2)
    # puts the first vertex of fibre 1 next to a later vertex of fibre 2,
    # so s_1 and s_2 lie in different lift components.
    rng = random.Random(73)
    z12, z2x4 = AbelianGroup((12,)), AbelianGroup((2, 4))
    path = from_edge_list(3, [(1, 2), (2, 3)])
    cases = [
        (path, make_signature(path, z12, {(1, 2): (1,), (2, 3): (0,)})),
        (path, make_signature(path, z2x4, {(1, 2): (1, 2), (2, 3): (0, 1)})),
    ]
    two_parts = from_edge_list(6, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6)])
    cases += [(two_parts, _random_signature(two_parts, gr, rng)) for gr in LIFT_GROUPS]
    for base, s in cases:
        lift, starts = _start_components(base, s)
        assert len(set(starts)) > 1, (base.edges, s.assignments)
        assert lift_charpoly(base, s) == berkowitz_charpoly(adjacency_matrix(lift))


def test_lift_charpoly_with_fibre_starts_sharing_a_component():
    # Identity voltages on a connected base put every start in one copy of
    # it; a cycle whose net voltage generates Z12 gives one connected lift.
    rng = random.Random(74)
    z12 = AbelianGroup((12,))
    cycle = from_edge_list(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 4)])
    generating = make_signature(cycle, z12, {e: (int(e == (1, 5)),) for e in cycle.edges})
    assert len(set(_components(build_lift(cycle, generating)))) == 1
    signatures = [make_signature(cycle, gr, {e: gr.identity() for e in cycle.edges}) for gr in LIFT_GROUPS]
    signatures += [generating] + [_random_signature(cycle, gr, rng) for gr in LIFT_GROUPS]
    for s in signatures:
        lift, starts = _start_components(cycle, s)
        assert len(starts) > len(set(starts)), s.assignments
        assert lift_charpoly(cycle, s) == berkowitz_charpoly(adjacency_matrix(lift))


def _walked_degrees(base, s):
    """The lift, and the degrees of its vertices in the union of the
    components of the fibres' first vertices, the part the walk visits."""
    lift, starts = _start_components(base, s)
    comp, adj = _components(lift), neighbor_lists(lift)
    return lift, [len(adj[v]) for v in range(lift.n) if comp[v] in starts]


def test_lift_charpoly_with_a_neighbour_slot_that_one_walked_vertex_holds():
    # The star K1,3 with a path 4-5-6 hung from a leaf: only the centre has
    # a third neighbour. Identity voltages, over any group or the trivial
    # one, walk one copy of the base, so one walked vertex holds the third
    # slot; so it does beside a triangle whose voltage joins its copies.
    star = from_edge_list(6, [(1, 2), (1, 3), (1, 4), (4, 5), (5, 6)])
    cases = [(star, make_signature(star, gr, {e: gr.identity() for e in star.edges})) for gr in LIFT_GROUPS]
    cases.append((star, make_signature(star, AbelianGroup((1,)), {e: (0,) for e in star.edges})))
    beside = from_edge_list(9, star.edges + ((7, 8), (8, 9), (7, 9)))
    z3 = AbelianGroup((3,))
    cases.append((beside, make_signature(beside, z3, {e: (int(e == (7, 8)),) for e in beside.edges})))
    for base, s in cases:
        lift, degrees = _walked_degrees(base, s)
        assert degrees.count(max(degrees)) == 1, s.assignments
        assert lift_charpoly(base, s) == berkowitz_charpoly(adjacency_matrix(lift)), s.assignments


def test_lift_charpoly_with_isolated_starts_beside_edges():
    # Isolated base vertices first, between and after the edges: their
    # starts have degree 0 and sort after every walked vertex with an edge.
    rng = random.Random(76)
    bases = [
        from_edge_list(5, [(2, 3), (3, 4)]),
        from_edge_list(6, [(1, 2), (2, 3), (1, 3), (5, 6)]),
        from_edge_list(7, [(2, 3), (3, 4), (4, 5), (2, 5), (3, 5)]),
        from_edge_list(4, [(3, 4)]),
    ]
    for base in bases:
        for gr in LIFT_GROUPS:
            identity = make_signature(base, gr, {e: gr.identity() for e in base.edges})
            for s in (_random_signature(base, gr, rng), identity):
                lift, degrees = _walked_degrees(base, s)
                assert 0 in degrees and max(degrees) > 0
                assert lift_charpoly(base, s) == berkowitz_charpoly(adjacency_matrix(lift)), s.assignments


def test_lift_charpoly_when_the_starts_leave_part_of_the_lift_unwalked():
    # Voltages in a proper subgroup leave every start in a component that
    # misses some vertices of the lift; the degrees differ, so the degree
    # order is not the vertex order.
    rng = random.Random(78)
    base = from_edge_list(6, [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 6), (6, 4), (2, 5)])
    subgroups = {(4,): [(0,), (2,)], (2, 4): [(0, 0), (1, 0), (0, 2), (1, 2)], (12,): [(0,), (3,), (6,), (9,)]}
    for orders, subgroup in subgroups.items():
        gr = AbelianGroup(orders)
        for _ in range(4):
            s = make_signature(base, gr, {e: rng.choice(subgroup) for e in base.edges})
            lift, degrees = _walked_degrees(base, s)
            assert len(degrees) < lift.n and len(set(degrees)) > 1
            assert lift_charpoly(base, s) == berkowitz_charpoly(adjacency_matrix(lift)), s.assignments


def test_lift_charpoly_on_the_densest_bases():
    # K7, the densest base of the decompose-random pool, over Z2xZ2xZ2 (56
    # vertices) and Z12 (84 vertices, walk counts up to 6^84 per field).
    rng = random.Random(75)
    k7 = from_edge_list(7, [(i, j) for i in range(1, 8) for j in range(i + 1, 8)])
    for gr in (AbelianGroup((2, 2, 2)), AbelianGroup((12,))):
        s = _random_signature(k7, gr, rng)
        assert lift_charpoly(k7, s) == berkowitz_charpoly(adjacency_matrix(build_lift(k7, s)))


def _character_images(base, s):
    """The image mod M of every character matrix, with M and r = 2^b chosen
    as verify_decomposition chooses them."""
    k, gr = s.group.exponent(), s.group
    bound = (max(degree_sequence(base), default=0) + 1) ** (base.n * gr.order())
    b, modulus = spectra.character_modulus(k, bound)
    images = []
    for chi in characters(gr):
        m = [[0] * base.n for _ in range(base.n)]
        for (i, j), g in s.assignments.items():
            e = chi.root_exponent(g)
            m[i - 1][j - 1] = pow(2**b, e, modulus)
            m[j - 1][i - 1] = pow(2**b, -e % k, modulus)
        images.append(m)
    return images


def _phi_at_power_of_two(k, b):
    """Phi_K(2^b) from the oracle's polynomial Phi_K."""
    return sum(c << (b * i) for i, c in enumerate(cyclotomic_poly(k)))


def _least_modulus(k, bound):
    """The least b >= 1 with Phi_K(2^b) > 2*bound, counted up from b = 1, and
    that Phi_K(2^b)."""
    b = 1
    while (modulus := _phi_at_power_of_two(k, b)) <= 2 * bound:
        b += 1
    return b, modulus


def test_character_modulus_is_the_least_b_with_phi_above_twice_the_bound():
    # Bounds C with Phi_K(2^b)/2 <= C < Phi_K(2^b) need b + 1: there a
    # modulus above C alone would not do, as symmetric residues need M > 2C.
    for k in range(1, 61):
        bounds = {1, 7**84, 3**200}
        for b in range(1, 5):
            value = _phi_at_power_of_two(k, b)
            bounds.update(c for c in ((value + 1) // 2, value - 1) if 1 <= c < value)
        for bound in sorted(bounds):
            assert spectra.character_modulus(k, bound) == _least_modulus(k, bound), (k, bound)


@pytest.mark.parametrize("gr", LIFT_GROUPS, ids=_group_id)
def test_conjugate_character_image_is_the_transpose(gr):
    rng = random.Random(f"conjugate/{gr.orders}")
    chars, k = characters(gr), gr.exponent()
    for n in (2, 4, 6, 7):
        base = _random_base(rng, n, 0.6)
        s = _random_signature(base, gr, rng)
        images = _character_images(base, s)
        for pos, chi in enumerate(chars):
            # the conjugate takes every element to the inverse root of unity
            (conj,) = [
                q for q, psi in enumerate(chars)
                if all(psi.root_exponent(g) == -chi.root_exponent(g) % k for g in gr.elements())
            ]
            assert conj == gr.index(inverse(gr, chi.index))
            assert images[conj] == [list(col) for col in zip(*images[pos])]
            assert berkowitz_charpoly(images[conj]) == berkowitz_charpoly(images[pos])


def test_verify_decomposition_takes_one_factor_per_conjugate_pair(monkeypatch):
    calls = []

    def counted(matrix, *args):
        calls.append(len(matrix))
        return berkowitz_charpoly(matrix, *args)

    monkeypatch.setattr(spectra, "berkowitz_charpoly", counted)
    rng = random.Random(76)
    stated = {(12,): 7, (3, 3): 5, (2, 4): 6, (2, 2, 2): 8}
    for gr in LIFT_GROUPS:
        # chi is its own conjugate iff its index has order 1 or 2
        own = sum(inverse(gr, e) == e for e in gr.elements())
        pairs = (gr.order() + own) // 2
        assert pairs == stated.get(gr.orders, pairs)
        base = _random_base(rng, 6, 0.6)
        s = _random_signature(base, gr, rng)
        calls.clear()
        report = verify_decomposition(base, s)
        assert calls == [base.n] * pairs, gr.orders
        assert report.holds
        assert report.product_poly == cyclotomic_product(base, s)
