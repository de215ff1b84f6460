import random
import time
from itertools import permutations

import networkx as nx
import pytest

from graphlifts import fixtures, isomorphism
from graphlifts.algebra import AbelianGroup, compose, inverse
from graphlifts.graphs import Graph, from_edge_list, neighbor_lists
from graphlifts.isomorphism import (
    TooLarge,
    are_isomorphic,
    canonical_form,
    relabeled,
)
from graphlifts.lifts import build_lift, make_signature
from graphlifts.search import SwitchingClasses


def random_graph(rng, n_lo=1, n_hi=7, p=None):
    n = rng.randint(n_lo, n_hi)
    density = rng.random() if p is None else p
    pool = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return from_edge_list(n, [e for e in pool if rng.random() < density])


def brute_force_isomorphic(g, h):
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False
    h_edges = set(h.edges)
    for perm in permutations(range(1, g.n + 1)):
        if all(
            (min(perm[i - 1], perm[j - 1]), max(perm[i - 1], perm[j - 1])) in h_edges
            for i, j in g.edges
        ):
            return True
    return False


def test_oracle_agreement_random_pairs():
    rng = random.Random(424242)
    trials = 0
    while trials < 220:
        g = random_graph(rng)
        if rng.random() < 0.5:
            perm = list(range(1, g.n + 1))
            rng.shuffle(perm)
            h = relabeled(g, tuple(perm))
        else:
            h = random_graph(rng, n_lo=g.n, n_hi=g.n)
        got, mapping = are_isomorphic(g, h)
        assert got == brute_force_isomorphic(g, h)
        if got:
            _check_mapping(g, h, mapping)
        trials += 1


def _check_mapping(g, h, mapping):
    assert sorted(mapping) == list(range(1, g.n + 1))
    mapped = {
        (min(mapping[i - 1], mapping[j - 1]), max(mapping[i - 1], mapping[j - 1]))
        for i, j in g.edges
    }
    assert mapped == set(h.edges)


def test_relabeling_always_isomorphic():
    rng = random.Random(7)
    for _ in range(60):
        g = random_graph(rng, n_hi=12)
        perm = list(range(1, g.n + 1))
        rng.shuffle(perm)
        h = relabeled(g, tuple(perm))
        ok, mapping = are_isomorphic(g, h)
        assert ok
        _check_mapping(g, h, mapping)


def test_canonical_form_is_relabeling_invariant():
    rng = random.Random(13)
    for _ in range(40):
        g = random_graph(rng, n_hi=10)
        perm = list(range(1, g.n + 1))
        rng.shuffle(perm)
        h = relabeled(g, tuple(perm))
        assert canonical_form(g).edges == canonical_form(h).edges


def test_canonical_relabeling_produces_the_canonical_edges():
    rng = random.Random(29)
    for _ in range(30):
        g = random_graph(rng, n_hi=9)
        form = canonical_form(g)
        assert relabeled(g, form.relabeling).edges == form.edges


def test_regular_graphs_need_individualization():
    # two 3-regular graphs on 6 vertices: K_{3,3} vs the prism
    k33 = from_edge_list(6, [(1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6)])
    prism = from_edge_list(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6)])
    assert not are_isomorphic(k33, prism)[0]
    assert brute_force_isomorphic(k33, prism) is False
    # the prism relabeled is still the prism
    assert are_isomorphic(prism, relabeled(prism, (3, 1, 2, 6, 4, 5)))[0]


def test_cycle_vs_disjoint_triangles():
    c6 = from_edge_list(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
    two_k3 = from_edge_list(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert not are_isomorphic(c6, two_k3)[0]


def test_empty_and_tiny_graphs():
    assert are_isomorphic(Graph(1, ()), Graph(1, ()))[0]
    assert not are_isomorphic(Graph(2, ()), from_edge_list(2, [(1, 2)]))[0]


def test_size_ceiling():
    big = Graph(65, ())
    with pytest.raises(TooLarge):
        canonical_form(big)
    with pytest.raises(TooLarge):
        are_isomorphic(big, big)
    ok = Graph(64, ())
    assert are_isomorphic(ok, ok)[0]


# --- automorphism pruning ---------------------------------------------------


def _unpruned_canonical_connected(g):
    """The backtracking without automorphism pruning: every child of every
    node is explored. The pruned search must return exactly its result."""
    n = g.n
    if len(g.edges) == n * (n - 1) // 2:
        all_pairs = tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))
        return isomorphism.CanonicalForm(n, all_pairs, tuple(range(1, n + 1)))
    adj = neighbor_lists(g)
    adj_sets = [set(row) for row in adj]
    best = {"bits": None, "colors": None}

    def search(colors):
        prefix = isomorphism._prefix_bits(n, adj_sets, colors)
        if best["bits"] is not None and prefix > best["bits"][: len(prefix)]:
            return
        counts = [0] * n
        for c in colors:
            counts[c] += 1
        target = next((c for c in range(n) if counts[c] > 1), None)
        if target is None:
            order = [0] * n
            for v, c in enumerate(colors):
                order[c] = v
            bits = tuple(
                1 if order[i] in adj_sets[order[j]] else 0 for j in range(1, n) for i in range(j)
            )
            if best["bits"] is None or bits < best["bits"]:
                best["bits"] = bits
                best["colors"] = list(colors)
            return
        members = sorted(v for v in range(n) if colors[v] == target)
        children = []
        for v in members:
            child = isomorphism._individualize(n, adj, colors, v)
            children.append((isomorphism._prefix_bits(n, adj_sets, child), v, child))
        children.sort(key=lambda t: (t[0], t[1]))
        for _, _, child in children:
            search(child)

    search(isomorphism._refine(n, adj, [0] * n))
    relabeling = tuple(c + 1 for c in best["colors"])
    return isomorphism.CanonicalForm(n, relabeled(g, relabeling).edges, relabeling)


def _shuffled(g, rng):
    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)
    return relabeled(g, tuple(perm))


def _hypercube(d):
    n = 1 << d
    return from_edge_list(n, [(v + 1, (v ^ (1 << b)) + 1) for v in range(n) for b in range(d)])


def _cycle(n):
    return from_edge_list(n, [(i, i % n + 1) for i in range(1, n + 1)])


def _complete_minus(n, missing):
    pool = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return from_edge_list(n, [e for e in pool if e not in missing])


PETERSEN = from_edge_list(
    10,
    [(i, i % 5 + 1) for i in range(1, 6)]
    + [(i, i + 5) for i in range(1, 6)]
    + [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)],
)
SYMMETRIC = {
    "Petersen": PETERSEN,
    "Q3": _hypercube(3),
    "Q4": _hypercube(4),
    "C12": _cycle(12),
    "K3,3": from_edge_list(6, [(i, j) for i in (1, 2, 3) for j in (4, 5, 6)]),
    "K6 minus a perfect matching": _complete_minus(6, {(1, 2), (3, 4), (5, 6)}),
    "K8 minus two disjoint edges": _complete_minus(8, {(1, 2), (3, 4)}),
}


def _random_signature(base, gr, rng):
    elems = gr.elements()
    return make_signature(base, gr, {e: rng.choice(elems) for e in base.edges})


def _gauge_switched(sig, rng):
    """s'(i, j) = f(i) * s(i, j) * f(j)^-1 for random vertex potentials f."""
    gr = sig.group
    f = {v: rng.choice(gr.elements()) for v in range(1, sig.base.n + 1)}
    return make_signature(
        sig.base,
        gr,
        {(i, j): compose(gr, compose(gr, f[i], g), inverse(gr, f[j])) for (i, j), g in sig.items()},
    )


def _random_cubic(n, rng):
    """A uniformly paired 3-regular multigraph on n vertices, redrawn until
    it is simple."""
    while True:
        stubs = [v for v in range(1, n + 1) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2]) if a != b}
        if len(pairs) == 3 * n // 2:
            return from_edge_list(n, pairs)


# 4-regular on 11 vertices: after a leaf equal to the best one, a later child
# of the node where the two leaves' paths part still holds a smaller string,
# so the search must resume at that node and no higher.
RESUME_DEPTH_WITNESS = from_edge_list(
    11,
    [(1, 4), (1, 6), (1, 10), (1, 11), (2, 7), (2, 9), (2, 10), (2, 11), (3, 4), (3, 5), (3, 6),
     (3, 8), (4, 5), (4, 7), (5, 6), (5, 8), (6, 9), (7, 9), (7, 11), (8, 10), (8, 11), (9, 10)],
)


def _oracle_cases():
    yield from SYMMETRIC.items()
    yield "4-regular resume-depth witness", RESUME_DEPTH_WITNESS
    rng = random.Random(2014)
    for base_name, base in (("G", fixtures.BASE_G), ("H", fixtures.BASE_H)):
        for orders in ((3,), (4,)):
            classes = SwitchingClasses(base, AbelianGroup(orders))
            for cid in range(classes.count):
                sig = _gauge_switched(classes.representative(cid), rng)
                yield f"{base_name} over Z{orders[0]}, class {cid}", _shuffled(build_lift(base, sig), rng)
    for k in range(60):
        yield f"random graph #{k}", random_graph(rng, n_hi=10)
    for k in range(40):
        yield f"random cubic graph #{k}", _random_cubic(10, rng)


def test_pruned_search_equals_the_unpruned_oracle(monkeypatch):
    cases = list(_oracle_cases())
    pruned = [canonical_form(g) for _, g in cases]
    monkeypatch.setattr(isomorphism, "_canonical_connected", _unpruned_canonical_connected)
    for (name, g), form in zip(cases, pruned):
        oracle = canonical_form(g)
        assert form.edges == oracle.edges, name
        assert form.relabeling == oracle.relabeling, name


GROUPS_UP_TO_8 = [(2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4), (2, 2, 2)]


def _random_connected_base(rng):
    n = rng.randint(3, 7)
    edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
    edges |= {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.3}
    return _shuffled(from_edge_list(n, edges), rng)


def _nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(1, g.n + 1))
    h.add_edges_from(g.edges)
    return h


@pytest.mark.parametrize("seed", range(4))
def test_are_isomorphic_agrees_with_networkx_on_lifts(seed):
    rng = random.Random(seed)
    verdicts = []
    for _ in range(10):
        base = _random_connected_base(rng)
        gr = AbelianGroup(rng.choice(GROUPS_UP_TO_8))
        sig = _random_signature(base, gr, rng)
        lift = build_lift(base, sig)
        for other in (_gauge_switched(sig, rng), _random_signature(base, gr, rng)):
            h = _shuffled(build_lift(base, other), rng)
            ok, mapping = are_isomorphic(lift, h)
            assert ok == nx.is_isomorphic(_nx(lift), _nx(h))
            if ok:
                _check_mapping(lift, h, mapping)
            verdicts.append(ok)
    assert all(verdicts[::2])
    assert not all(verdicts[1::2])


def test_symmetric_graphs_finish_within_the_stated_bound():
    """K11 minus two disjoint edges, the hypercube Q5, the cycle C64 and the
    60-vertex lift of H over Z10 whose only non-identity voltage is 1 on
    (5, 6) (switching class (0, 1)), each against a seeded relabeling: all
    eight canonical forms together finish in under 10 s. Without automorphism
    pruning these graphs take more than 30 s."""
    h = fixtures.BASE_H
    z10 = AbelianGroup((10,))
    lift = build_lift(h, make_signature(h, z10, {e: ((1,) if e == (5, 6) else (0,)) for e in h.edges}))
    graphs = [_complete_minus(11, {(1, 2), (3, 4)}), _hypercube(5), _cycle(64), lift]
    rng = random.Random(60)
    start = time.perf_counter()
    for g in graphs:
        assert canonical_form(g).edges == canonical_form(_shuffled(g, rng)).edges
    assert time.perf_counter() - start < 10.0
