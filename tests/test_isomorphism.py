import hashlib
import random
import time
from collections import Counter
from itertools import combinations

import networkx as nx
import pytest

from graphlifts import fixtures, isomorphism
from graphlifts.algebra import AbelianGroup, compose, inverse
from graphlifts.cli import main
from graphlifts.graphs import Graph, degree_sequence, emit_edge_list, from_edge_list, neighbor_lists
from graphlifts.isomorphism import (
    TooLarge,
    are_isomorphic,
    canonical_form,
    relabeled,
)
from graphlifts.lifts import build_lift, make_signature
from graphlifts.search import SwitchingClasses

from oracles import brute_force_isomorphic


def random_graph(rng, n_lo=1, n_hi=7, p=None):
    n = rng.randint(n_lo, n_hi)
    density = rng.random() if p is None else p
    pool = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return from_edge_list(n, [e for e in pool if rng.random() < density])


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
    # equal n, m and degree sequence, so C6 is searched against the targets
    # of 2K3's components, which hold no string of its size
    assert are_isomorphic(two_k3, c6) == (False, None)


def test_empty_and_tiny_graphs():
    empty = Graph(0, ())
    assert canonical_form(empty) == isomorphism.CanonicalForm(0, (), ())
    assert are_isomorphic(empty, empty) == (True, ())
    assert are_isomorphic(Graph(1, ()), Graph(1, ()))[0]
    assert not are_isomorphic(Graph(2, ()), from_edge_list(2, [(1, 2)]))[0]


def test_size_ceiling():
    big = Graph(193, ())
    with pytest.raises(TooLarge):
        canonical_form(big)
    with pytest.raises(TooLarge):
        are_isomorphic(big, big)
    ok = Graph(192, ())
    assert are_isomorphic(ok, ok)[0]


# --- automorphism pruning ---------------------------------------------------


def _full_round(n, adj, colors):
    """One round that ranks every vertex's whole profile, its colour and its
    sorted neighbour colours."""
    profiles = [(colors[v], tuple(sorted(colors[u] for u in adj[v]))) for v in range(n)]
    rank = {p: i for i, p in enumerate(sorted(set(profiles)))}
    return [rank[p] for p in profiles]


def _refine_by_full_rounds(n, adj, colors):
    """Colour refinement by full rounds until nothing changes: the
    refinement that _refine must reproduce exactly, as dense ranks."""
    while True:
        new = _full_round(n, adj, colors)
        if new == colors:
            return new
        colors = new


def _ranks(cells):
    """The labels of an ordered partition as dense ranks."""
    rank = {x: i for i, x in enumerate(sorted(set(cells[0])))}
    return [rank[x] for x in cells[0]]


def _cells_of(colors):
    """The ordered partition of a colouring, each cell labelled by its last
    position."""
    n = len(colors)
    order = sorted(range(n), key=colors.__getitem__)
    last = {colors[v]: p for p, v in enumerate(order)}
    label = [last[c] for c in colors]
    start = [0] * n
    pos = [0] * n
    for p in reversed(range(n)):
        start[label[order[p]]] = p
        pos[order[p]] = p
    return label, start, order, pos


def _check_cells(cells, parent=None):
    """`order` is a permutation, `pos` its inverse, and each cell's members
    fill the positions from its start to its label. Given the partition
    `parent` it was refined from, every cell lies inside a parent cell, whose
    label its members that stayed untouched still carry."""
    label, start, order, pos = cells
    n = len(order)
    assert sorted(order) == list(range(n))
    assert all(order[pos[v]] == v for v in range(n))
    for i, v in enumerate(order):
        assert start[label[v]] <= i <= label[v]
    assert all(label[order[i]] == e for e in set(label) for i in range(start[e], e + 1))
    if parent is not None:
        for v in range(n):
            assert parent[1][parent[0][v]] <= label[v] <= parent[0][v]
        assert set(parent[0]) <= set(label)


def _full_prefix_bits(adj_sets, colors):
    """Column-major upper-triangle bits among the leading singleton classes,
    every column computed afresh."""
    counts = Counter(colors)
    placed = []
    while counts[len(placed)] == 1:
        placed.append(colors.index(len(placed)))
    return bytes(
        1 if placed[i] in adj_sets[placed[j]] else 0 for j in range(1, len(placed)) for i in range(j)
    )


def _leading_singletons(colors):
    counts = Counter(colors)
    placed = 0
    while counts[placed] == 1:
        placed += 1
    return placed


def _unpruned_canonical_connected(adj, target=None):
    """The backtracking without automorphism pruning: every child of every
    node is explored, with the full-round refinement and prefix bits. The
    pruned search must return exactly its result, the labeling and the leaf
    string; `target` is ignored, since only full searches are compared."""
    n = len(adj)
    if all(len(row) == n - 1 for row in adj):
        return list(range(n)), b"\x01" * (n * (n - 1) // 2)
    adj_sets = [set(row) for row in adj]
    best = {"bits": None, "colors": None}

    def search(colors):
        prefix = _full_prefix_bits(adj_sets, colors)
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
            bits = bytes(
                1 if order[i] in adj_sets[order[j]] else 0 for j in range(1, n) for i in range(j)
            )
            if best["bits"] is None or bits < best["bits"]:
                best["bits"] = bits
                best["colors"] = list(colors)
            return
        members = sorted(v for v in range(n) if colors[v] == target)
        children = []
        for v in members:
            child = _individualize_by_ranking(n, adj, colors, v)
            children.append((_full_prefix_bits(adj_sets, child), v, child))
        children.sort(key=lambda t: (t[0], t[1]))
        for _, _, child in children:
            search(child)

    search(_refine_by_full_rounds(n, adj, [0] * n))
    return best["colors"], best["bits"]


def _shuffled(g, rng):
    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)
    return relabeled(g, tuple(perm))


def _hypercube(d):
    n = 1 << d
    return from_edge_list(n, [(v + 1, (v ^ (1 << b)) + 1) for v in range(n) for b in range(d)])


def _cycle(n):
    return from_edge_list(n, [(i, i % n + 1) for i in range(1, n + 1)])


def _star(n):
    return from_edge_list(n, [(1, v) for v in range(2, n + 1)])


def _complete_bipartite(a, b):
    return from_edge_list(a + b, [(i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)])


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


def _individualize_by_ranking(n, adj, colors, v):
    """Split v off its class by ranking the (colour, is-not-v) pairs, then
    refine: the ranking that _individualize computes without a sort."""
    keyed = [(colors[u], 0 if u == v else 1) for u in range(n)]
    rank = {p: i for i, p in enumerate(sorted(set(keyed)))}
    return _refine_by_full_rounds(n, adj, [rank[p] for p in keyed])


def test_individualize_equals_ranking_the_split_pairs():
    # Every partition here is a refined one, as in the search: the root, then
    # one individualization after another down a random path, checking each
    # member of each cell of more than one vertex; the parent is left as it
    # was.
    rng = random.Random(9)
    checked = 0
    for k in range(150):
        g = _random_cubic(12, rng) if k % 3 == 0 else random_graph(rng, n_lo=2, n_hi=12)
        n, adj = g.n, neighbor_lists(g)
        cells = isomorphism._root(adj)
        _check_cells(cells)
        while True:
            colors = _ranks(cells)
            split = [v for v in range(n) if colors.count(colors[v]) > 1]
            if not split:
                break
            before = [list(x) for x in cells]
            for v in split:
                child = isomorphism._individualize(adj, cells, v)
                _check_cells(child, cells)
                assert _ranks(child) == _individualize_by_ranking(n, adj, colors, v)
                checked += 1
            assert [list(x) for x in cells] == before
            cells = isomorphism._individualize(adj, cells, rng.choice(split))
    assert checked > 1000


def test_symmetric_graphs_finish_within_the_stated_bound():
    """K11 minus two disjoint edges, the hypercube Q5, the cycle C64 and the
    60-vertex lift of H over Z10 whose only non-identity voltage is 1 on
    (5, 6) (switching class (0, 1)), each against a seeded relabeling: all
    eight canonical forms together finish in under 10 s. Without automorphism
    pruning these graphs take more than 30 s."""
    graphs = [_complete_minus(11, {(1, 2), (3, 4)}), _hypercube(5), _cycle(64), _lift_of_one_voltage(10)]
    rng = random.Random(60)
    start = time.perf_counter()
    for g in graphs:
        assert canonical_form(g).edges == canonical_form(_shuffled(g, rng)).edges
    assert time.perf_counter() - start < 10.0


def _refine_cases(rng):
    for _ in range(40):
        yield random_graph(rng, n_hi=16)
        yield _random_cubic(2 * rng.randint(2, 10), rng)
    for orders in GROUPS_UP_TO_8:
        for _ in range(3):
            base = _random_connected_base(rng)
            yield build_lift(base, _random_signature(base, AbelianGroup(orders), rng))


def test_refine_equals_the_full_rounds():
    # From the root; from one full round on a random colouring, with the
    # vertices whose labels that round moved; then down a random path of
    # individualizations, checking at each node every vertex of every cell
    # of more than one vertex, with the child's prefix bits extended from
    # its parent's.
    rng = random.Random(2024)
    checked = 0
    for g in _refine_cases(rng):
        n, adj = g.n, neighbor_lists(g)
        adj_sets = [set(row) for row in adj]
        cells = isomorphism._root(adj)
        _check_cells(cells)
        assert _ranks(cells) == _refine_by_full_rounds(n, adj, [0] * n)
        start = [rng.randrange(3) for _ in range(n)]
        unrefined = _cells_of(start)
        first = _cells_of(_full_round(n, adj, start))
        moved = [v for v, (x, y) in enumerate(zip(unrefined[0], first[0])) if x != y]
        isomorphism._refine(adj, first, moved)
        _check_cells(first, unrefined)
        assert _ranks(first) == _refine_by_full_rounds(n, adj, start)
        colors = _ranks(cells)
        prefix, placed = isomorphism._prefix_bits(adj, cells)
        assert (prefix, placed) == (_full_prefix_bits(adj_sets, colors), _leading_singletons(colors))
        while True:
            split = [v for v in range(n) if colors.count(colors[v]) > 1]
            if not split:
                break
            for v in split:
                child = isomorphism._individualize(adj, cells, v)
                _check_cells(child, cells)
                expected = _individualize_by_ranking(n, adj, colors, v)
                assert _ranks(child) == expected
                columns, child_placed = isomorphism._prefix_bits(adj, child, placed)
                assert (prefix + columns, child_placed) == (
                    _full_prefix_bits(adj_sets, expected),
                    _leading_singletons(expected),
                )
                checked += 1
            cells = isomorphism._individualize(adj, cells, rng.choice(split))
            colors = _ranks(cells)
            columns, placed = isomorphism._prefix_bits(adj, cells, placed)
            prefix += columns
    assert checked > 1000


def _lift_of(base, orders, seed):
    return build_lift(base, _random_signature(base, AbelianGroup(orders), random.Random(seed)))


def _lift_of_one_voltage(order):
    """The lift of H over Z_order whose only non-identity voltage is 1 on
    (5, 6): 6 * order vertices, switching class (0, 1)."""
    h = fixtures.BASE_H
    gr = AbelianGroup((order,))
    return build_lift(h, make_signature(h, gr, {e: ((1,) if e == (5, 6) else (0,)) for e in h.edges}))


PIN_GRAPHS = {
    "C64": lambda: _cycle(64),
    "Q5": lambda: _hypercube(5),
    "Q6": lambda: _hypercube(6),
    "K11 minus two edges": lambda: _complete_minus(11, {(1, 2), (3, 4)}),
    "G over Z4": lambda: _lift_of(fixtures.BASE_G, (4,), 1),
    "G over Z6": lambda: _lift_of(fixtures.BASE_G, (6,), 2),
    "G over Z2xZ4": lambda: _lift_of(fixtures.BASE_G, (2, 4), 3),
    "H over Z4": lambda: _lift_of(fixtures.BASE_H, (4,), 4),
    "H over Z6": lambda: _lift_of(fixtures.BASE_H, (6,), 5),
    "H over Z2xZ4": lambda: _lift_of(fixtures.BASE_H, (2, 4), 6),
    "C192": lambda: _cycle(192),
    "H over Z32, 1 on (5, 6)": lambda: _lift_of_one_voltage(32),
    "K1,63": lambda: _star(64),
    "K32,32": lambda: _complete_bipartite(32, 32),
}

# sha256 of repr((edges, relabeling)) of canonical_form on a seeded
# relabeling of each graph of PIN_GRAPHS, at the commit that pinned them (the
# 192-vertex graphs, K1,63 and K32,32 at the commit before the ceiling rose
# to 192, the 192-vertex ones with the ceiling lifted); every later change
# must keep them.
PINNED_FORMS = {
    "C64": "26d086b92ad151763b46c882d7638a74bc168f0ab7a8365344cd22e6362821a3",
    "Q5": "2d51c3d81b05b18868da895b9d198d836453bb17b9cd72cd61484bcdca7b560c",
    "Q6": "7a4b2ba3255fae4c4bfa01499abbbf2f7878b8ced80e4ae8539f8d47b1eff3e9",
    "K11 minus two edges": "65469be217586d655f98c7207448eb8baf04f83b1fd0737be125fe8d7d30cc56",
    "G over Z4": "5fd28a3f040d3422b90a8651f0fba62d70c09e39b6d833b4d8c01967ebf75f0e",
    "G over Z6": "04d0c6907d17e0e8963f3bfc0f9c3a9f10691fa465060d842a8feb696e894db3",
    "G over Z2xZ4": "389a457de0027caa99c475fa68badf94ff1550b1e8d0b2794ac956bc2863fbe7",
    "H over Z4": "6f319b6d9de47b9719ccb444d429f77bea779c7ab23bd737ef627b2e8e2b85c6",
    "H over Z6": "dbb85e73c5dc51ee4c6c60125a2e42cfce91d6327c1cd6e124fff34b70853dda",
    "H over Z2xZ4": "043dc09e429aca44bbde41ca6292aaa7d4a6ea6f9b0d925f04eea5b08a352f7a",
    "C192": "ed54689dcc37e0304e2aa5c8148d5a244e3bf2c956df1a59d674960a7ca19565",
    "H over Z32, 1 on (5, 6)": "307735d134f0a91baef8fdfc5064224077264351c4d1c83f552d10040530a29f",
    "K1,63": "32d04ab3946caed8184e67db6970177bd8dcab8edaebd8203c3775e654571f68",
    "K32,32": "66c676cb55d15c02eef66dd43981af370f87d2b64aff044e37db52ffa0158339",
}


def _pinned_relabeling(name, seed=0):
    return _shuffled(PIN_GRAPHS[name](), random.Random(f"{name}/{seed}"))


@pytest.mark.parametrize("name", PINNED_FORMS)
def test_canonical_forms_are_pinned(name):
    form = canonical_form(_pinned_relabeling(name))
    assert hashlib.sha256(repr((form.edges, form.relabeling)).encode()).hexdigest() == PINNED_FORMS[name]


# sha256 of the stdout of `iso A B` on two relabelings of one graph, mapping
# line included, at the commit that pinned them.
PINNED_ISO_STDOUT = {
    "Q5": "4ca4a334c6b70ca6514eba9c4a5d8d84b2cde1cd44983c512aa6139a449533db",
    "K11 minus two edges": "79e363c1addb862db116ae13db6ae75a56b33349d0ee08e1205135a606b57c7d",
    "G over Z2xZ4": "f8af8684f887e8b9d6c193f2e924c38d47ad1309786685e6cce9e3928af6fda7",
    "H over Z6": "39037a05c65fe656f397216d3a4aebdc8411a85cf43d9f2b4010bedad486a70f",
}


@pytest.mark.parametrize("name", PINNED_ISO_STDOUT)
def test_iso_stdout_is_pinned(name, capsys, tmp_path):
    paths = []
    for seed in (1, 2):
        path = tmp_path / f"{seed}.edges"
        path.write_text(emit_edge_list(_pinned_relabeling(name, seed)))
        paths.append(str(path))
    assert main(["iso", *paths]) == 0
    out = capsys.readouterr().out
    assert out.startswith("isomorphic\nmapping: ")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_ISO_STDOUT[name]


def test_graphs_at_the_size_ceiling_finish_within_the_stated_bound():
    """C128, the hypercube Q7 and the 120-vertex lift of H over Z20 whose only
    non-identity voltage is 1 on (5, 6), each against a seeded relabeling:
    all six canonical forms together finish in under 5 s. The graphs at the
    ceiling itself have their own bound, below."""
    graphs = [_cycle(128), _hypercube(7), _lift_of_one_voltage(20)]
    rng = random.Random(128)
    start = time.perf_counter()
    for g in graphs:
        assert canonical_form(g).edges == canonical_form(_shuffled(g, rng)).edges
    assert time.perf_counter() - start < 5.0


def test_graphs_of_192_vertices_finish_within_the_stated_bound():
    """C192, the 192-vertex lift of H over Z32 whose only non-identity
    voltage is 1 on (5, 6), the star K1,191 and the complete bipartite graph
    K96,96, each against a seeded relabeling: each graph's two canonical
    forms finish in under 10 s. The star and K96,96 are the costly shapes at
    this size: one class of twins, whose first search path individualizes
    them one at a time, building every sibling at every level, and whose
    later branches each join one recorded automorphism per level below."""
    graphs = [_cycle(192), _lift_of_one_voltage(32), _star(192), _complete_bipartite(96, 96)]
    assert max(g.n for g in graphs) == isomorphism.SIZE_CEILING
    rng = random.Random(192)
    for g in graphs:
        start = time.perf_counter()
        assert canonical_form(g).edges == canonical_form(_shuffled(g, rng)).edges
        assert time.perf_counter() - start < 10.0


# sum over the search of _individualize calls of canonical_form on the seeded
# relabeling of each graph of PIN_GRAPHS, measured at the commit before the
# orbits were folded in incrementally, and for the 192-vertex graphs, K1,63
# and K32,32 at the commit before orbits were joined only over the target
# cell (the 192-vertex ones with the ceiling lifted): the same children must
# be skipped.
PINNED_INDIVIDUALIZE_CALLS = {
    "C64": 70,
    "Q5": 66,
    "Q6": 106,
    "K11 minus two edges": 67,
    "G over Z4": 16,
    "G over Z6": 23,
    "G over Z2xZ4": 33,
    "H over Z4": 19,
    "H over Z6": 49,
    "H over Z2xZ4": 36,
    "C192": 198,
    "H over Z32, 1 on (5, 6)": 694,
    "K1,63": 3967,
    "K32,32": 3098,
}


def _counting_individualize(monkeypatch):
    calls = [0]
    individualize = isomorphism._individualize

    def counting(*args):
        calls[0] += 1
        return individualize(*args)

    monkeypatch.setattr(isomorphism, "_individualize", counting)
    return calls


@pytest.mark.parametrize("name", PINNED_INDIVIDUALIZE_CALLS)
def test_individualize_calls_are_pinned(name, monkeypatch):
    g = _pinned_relabeling(name)
    calls = _counting_individualize(monkeypatch)
    canonical_form(g)
    assert calls[0] == PINNED_INDIVIDUALIZE_CALLS[name]


# --- target mode ------------------------------------------------------------


def _mapping_from_full_forms(g, h):
    """are_isomorphic's answer from two full canonical_form calls: the
    search that target mode must reproduce."""
    if g.n != h.n or len(g.edges) != len(h.edges) or degree_sequence(g) != degree_sequence(h):
        return False, None
    cg, ch = canonical_form(g), canonical_form(h)
    if cg.edges != ch.edges:
        return False, None
    inverse_h = {label: v for v, label in enumerate(ch.relabeling, start=1)}
    return True, tuple(inverse_h[label] for label in cg.relabeling)


def _disjoint_union(parts):
    edges, offset = [], 0
    for part in parts:
        edges.extend((i + offset, j + offset) for i, j in part.edges)
        offset += part.n
    return from_edge_list(offset, edges)


def _edge_swapped(g, rng):
    """g after a few degree-preserving swaps {a, b}, {c, d} -> {a, d}, {c, b}."""
    edges = set(g.edges)
    for _ in range(rng.randint(1, 3)):
        if len(edges) < 2:
            break
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        new = {(min(a, d), max(a, d)), (min(c, b), max(c, b))}
        if len({a, b, c, d}) == 4 and not new & edges:
            edges -= {(a, b), (c, d)}
            edges |= new
    return from_edge_list(g.n, edges)


def _target_mode_pairs(rng):
    """Seeded (g, h) pairs, isomorphic and not: random graphs, connected
    and with components of equal and of different sizes, against a
    relabeling and against degree-preserving swaps; lifts of the bundled
    bases over Z2..Z6 against a gauge-switched lift and a lift of another
    signature."""
    for k in range(120):
        if k % 3 == 0:
            g = random_graph(rng, n_lo=4, n_hi=12)
        elif k % 3 == 1:
            g = _disjoint_union([random_graph(rng, n_lo=1, n_hi=6) for _ in range(rng.randint(2, 4))])
        else:
            part = random_graph(rng, n_lo=2, n_hi=5, p=0.6)
            other = random_graph(rng, n_lo=part.n, n_hi=part.n, p=0.6)
            g = _disjoint_union([part, _shuffled(part, rng), other, random_graph(rng, n_lo=1, n_hi=4)])
        yield g, _shuffled(g, rng)
        yield g, _shuffled(_edge_swapped(g, rng), rng)
    for base in (fixtures.BASE_G, fixtures.BASE_H):
        for order in range(2, 7):
            gr = AbelianGroup((order,))
            for _ in range(3):
                sig = _random_signature(base, gr, rng)
                lift = build_lift(base, sig)
                yield lift, _shuffled(build_lift(base, _gauge_switched(sig, rng)), rng)
                yield lift, _shuffled(build_lift(base, _random_signature(base, gr, rng)), rng)


def test_target_mode_gives_the_answer_of_two_full_searches():
    verdicts = Counter()
    for g, h in _target_mode_pairs(random.Random(14)):
        for a, b in ((g, h), (h, g)):
            answer = are_isomorphic(a, b)
            assert answer == _mapping_from_full_forms(a, b)
            verdicts[answer[0]] += 1
    assert verdicts[True] > 300 and verdicts[False] > 100


def test_target_mode_individualizes_no_more_than_two_full_searches(monkeypatch):
    calls = _counting_individualize(monkeypatch)
    saved = 0
    for g, h in _target_mode_pairs(random.Random(15)):
        calls[0] = 0
        canonical_form(g)
        canonical_form(h)
        full = calls[0]
        calls[0] = 0
        are_isomorphic(g, h)
        assert calls[0] <= full
        saved += full - calls[0]
    assert saved > 0


def _rook_and_shrikhande():
    """The 4x4 rook's graph and the Shrikhande graph on Z4 x Z4: both
    srg(16, 6, 2, 2), not isomorphic."""
    cells = [(a, b) for a in range(4) for b in range(4)]
    pairs = list(combinations(range(16), 2))
    rook = from_edge_list(
        16, [(i + 1, j + 1) for i, j in pairs if cells[i][0] == cells[j][0] or cells[i][1] == cells[j][1]]
    )
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    shrikhande = from_edge_list(
        16,
        [
            (i + 1, j + 1)
            for i, j in pairs
            if ((cells[i][0] - cells[j][0]) % 4, (cells[i][1] - cells[j][1]) % 4) in steps
        ],
    )
    return rook, shrikhande


def _triangular_and_chang():
    """The triangular graph T(8) and the Chang graph got from it by Seidel
    switching on the four pairs of a perfect matching of K8: both
    srg(28, 12, 6, 4), not isomorphic."""
    pairs = list(combinations(range(8), 2))
    t8 = from_edge_list(
        28, [(i + 1, j + 1) for i, j in combinations(range(28), 2) if set(pairs[i]) & set(pairs[j])]
    )
    switched = {pairs.index(p) + 1 for p in ((0, 1), (2, 3), (4, 5), (6, 7))}
    edges = set(t8.edges)
    chang = from_edge_list(
        28,
        [
            (i, j)
            for i, j in combinations(range(1, 29), 2)
            if ((i, j) in edges) != ((i in switched) != (j in switched))
        ],
    )
    return t8, chang


def _srg_parameters(g):
    adj = [set(row) for row in neighbor_lists(g)]
    return (
        g.n,
        {len(row) for row in adj},
        {len(adj[u] & adj[v]) for u, v in combinations(range(g.n), 2) if v in adj[u]},
        {len(adj[u] & adj[v]) for u, v in combinations(range(g.n), 2) if v not in adj[u]},
    )


@pytest.mark.parametrize(
    "pair, parameters",
    [(_rook_and_shrikhande, (16, {6}, {2}, {2})), (_triangular_and_chang, (28, {12}, {6}, {4}))],
)
def test_strongly_regular_pairs_with_equal_parameters_finish_within_the_stated_bound(pair, parameters):
    """Refinement cannot split a strongly regular graph, so only the search
    tells these pairs apart: each verdict, in both argument orders against
    a seeded relabeling, finishes in under 1 s."""
    a, b = pair()
    assert _srg_parameters(a) == _srg_parameters(b) == parameters
    rng = random.Random(parameters[0])
    for g, h in ((a, b), (b, a)):
        start = time.perf_counter()
        assert are_isomorphic(g, _shuffled(h, rng)) == (False, None)
        assert time.perf_counter() - start < 1.0
