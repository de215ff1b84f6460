"""Seeded inputs for the benchmark workloads, written as files the CLI reads.

Graphs, lifts and graph6 text are built here from first principles rather
than with graphlifts, so that the expected answers do not depend on the code
under test. A graph is a pair (n, edges) with 1-based
vertices and edges sorted as (i, j), i < j.
"""

from __future__ import annotations

import os
import random
from itertools import product

# The bundled cospectral base pair (graphlifts.fixtures.BASE_G / BASE_H).
BASE_G = (6, ((1, 2), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5), (5, 6)))
BASE_H = (6, ((1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (3, 6), (5, 6)))

# The worked S3 signatures of the bundled 18-vertex pair, as one-line images
# of the fiber positions 1..3 (graphlifts.fixtures.EXAMPLE_SIGNATURE_G / _H).
S3_SIGNATURE_G = {
    (1, 2): (2, 3, 1), (2, 3): (3, 1, 2), (2, 4): (1, 2, 3), (3, 4): (3, 1, 2),
    (3, 5): (3, 1, 2), (4, 5): (2, 3, 1), (5, 6): (2, 1, 3),
}
S3_SIGNATURE_H = {
    (1, 2): (3, 1, 2), (1, 3): (1, 2, 3), (2, 3): (3, 1, 2), (3, 4): (1, 2, 3),
    (3, 5): (3, 1, 2), (3, 6): (1, 2, 3), (5, 6): (3, 1, 2),
}

# The group pool of scripts/decomposition_trials.py.
DECOMPOSE_GROUPS = [(2,), (3,), (4,), (5,), (2, 2), (6,), (2, 4), (3, 3), (2, 2, 2), (12,)]
DECOMPOSE_SIZES = range(2, 8)
DECOMPOSE_COPIES = 8  # ops per (vertex count, group) cell: 6 * 10 * 8 = 480

# Lifts of the bundled bases in iso-symmetric. Z7..Z10 are left out: the
# canonical-form cost of their switching classes spans 5 ms to over 15 s,
# which would blow the run budget (see perfbench/NOTES.md).
ISO_LIFT_GROUPS = [(4,), (5,), (6,), (2, 4)]
ISO_CLASSES_PER_CELL = 18


def edges_of(n: int, pairs) -> tuple:
    return tuple(sorted({(min(i, j), max(i, j)) for i, j in pairs}))


def hypercube(d: int):
    n = 1 << d
    return n, edges_of(n, [(v + 1, (v ^ (1 << b)) + 1) for v in range(n) for b in range(d)])


def cycle(n: int):
    return n, edges_of(n, [(i, i % n + 1) for i in range(1, n + 1)])


def complete_minus_two_edges(n: int):
    """K_n without the disjoint edges (1,2) and (3,4)."""
    missing = {(1, 2), (3, 4)}
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return n, tuple(p for p in pairs if p not in missing)


SYMMETRIC_GRAPHS = {
    "Q4": hypercube(4),
    "Q5": hypercube(5),
    "C32": cycle(32),
    "C64": cycle(64),
    "K9-2e": complete_minus_two_edges(9),
    "K10-2e": complete_minus_two_edges(10),
    "K11-2e": complete_minus_two_edges(11),
}


def relabel(graph, rng: random.Random):
    n, edges = graph
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return n, edges_of(n, [(perm[i - 1], perm[j - 1]) for i, j in edges])


def degree_sequence(graph) -> list[int]:
    n, edges = graph
    deg = [0] * n
    for i, j in edges:
        deg[i - 1] += 1
        deg[j - 1] += 1
    return sorted(deg)


def walk_traces(graph, kmax: int = 10) -> tuple[int, ...]:
    """tr(A^k) for k = 1..kmax. The power sums of the eigenvalues determine
    the characteristic polynomial, so two graphs whose traces differ have
    different charpolys and are not isomorphic."""
    n, edges = graph
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i - 1].append(j - 1)
        adj[j - 1].append(i - 1)
    # walks[w] packs, in one field per start vertex v, the number of walks
    # from v to w; a field holds up to maxdeg ** kmax without overflow.
    width = kmax * max(map(len, adj)).bit_length() + 1
    mask = (1 << width) - 1
    walks = [1 << (width * v) for v in range(n)]
    traces = []
    for _ in range(kmax):
        walks = [sum(walks[u] for u in adj[w]) for w in range(n)]
        traces.append(sum((walks[w] >> (width * w)) & mask for w in range(n)))
    return tuple(traces)


def graph6(graph) -> str:
    n, edges = graph
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    edge_set = set(edges)
    bits = [1 if (i, j) in edge_set else 0 for j in range(2, n + 1) for i in range(1, j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(int("".join(map(str, bits[k : k + 6])), 2) + 63) for k in range(0, len(bits), 6)
    )
    return head + body


def edge_list_text(graph) -> str:
    n, edges = graph
    return "".join([f"{n} {len(edges)}\n"] + [f"{i} {j}\n" for i, j in edges])


# ---------------------------------------------------------------------------
# Abelian voltages
# ---------------------------------------------------------------------------


def elements(orders) -> list[tuple[int, ...]]:
    return [tuple(t) for t in product(*(range(k) for k in orders))]


def add(orders, a, b):
    return tuple((x + y) % k for x, y, k in zip(a, b, orders))


def neg(orders, a):
    return tuple(-x % k for x, k in zip(a, orders))


def group_text(orders) -> str:
    return "x".join(f"Z{k}" for k in orders)


def signature_text(orders, signature: dict) -> str:
    lines = [f"group {group_text(orders)}"]
    for (i, j), g in sorted(signature.items()):
        elem = str(g[0]) if len(orders) == 1 else "(" + ",".join(map(str, g)) + ")"
        lines.append(f"{i} {j} : {elem}")
    return "\n".join(lines) + "\n"


def lift(base, orders, signature: dict):
    """Regular lift with the graphlifts convention: (i, a) ~ (j, a + s(i, j))
    for i < j, vertex (i, a) numbered (i - 1) * |Gr| + index(a) + 1."""
    n, edges = base
    elems = elements(orders)
    index = {e: k for k, e in enumerate(elems)}
    d = len(elems)
    pairs = [
        ((i - 1) * d + a + 1, (j - 1) * d + index[add(orders, e, signature[(i, j)])] + 1)
        for i, j in edges
        for a, e in enumerate(elems)
    ]
    return n * d, edges_of(n * d, pairs)


def permutation_lift(base, signature: dict):
    """Lift by one-line permutation voltages: (i, a) ~ (j, s(i, j)[a])."""
    n, edges = base
    d = len(next(iter(signature.values())))
    pairs = [
        ((i - 1) * d + a, (j - 1) * d + signature[(i, j)][a - 1])
        for i, j in edges
        for a in range(1, d + 1)
    ]
    return n * d, edges_of(n * d, pairs)


def cotree_edges(base) -> list[tuple[int, int]]:
    """Edges outside the breadth-first spanning tree from vertex 1 (the base
    is connected): their voltages are the switching class."""
    n, edges = base
    adj = {v: [] for v in range(1, n + 1)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen, tree, queue = {1}, set(), [1]
    for v in queue:
        for u in sorted(adj[v]):
            if u not in seen:
                seen.add(u)
                tree.add((min(u, v), max(u, v)))
                queue.append(u)
    return [e for e in edges if e not in tree]


def switched_signature(base, orders, cotree, voltages, rng: random.Random) -> dict:
    """A random signature in the switching class given by the cotree
    voltages: identity on the tree, then a random gauge t applied as
    s(i, j) -> -t(i) + s(i, j) + t(j), which gives an isomorphic lift."""
    n, edges = base
    elems = elements(orders)
    gauge = {v: rng.choice(elems) for v in range(1, n + 1)}
    cls = dict(zip(cotree, voltages))
    ident = elems[0]
    return {
        (i, j): add(orders, add(orders, neg(orders, gauge[i]), cls.get((i, j), ident)), gauge[j])
        for i, j in edges
    }


# ---------------------------------------------------------------------------
# Workloads. Each returns a list of ops: {"argv": [...], "expect": ...}.
# ---------------------------------------------------------------------------


def _write(path: str, text: str) -> str:
    """Write text to path unless the file already holds it. The set-up
    workers of a run all write the same inputs; rewriting them would only
    add waits on the disk to the set-up time."""
    try:
        with open(path, encoding="utf-8") as fh:
            if fh.read() == text:
                return path
    except FileNotFoundError:
        pass
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def search_z3_ops(workdir: str, seed: int) -> list[dict]:
    # The input is fixed; the seed does not apply.
    argv = ["--jobs", "1", "search", "--fixture-pair", "--group", "Z3"]
    return [{"kind": "search", "argv": argv}]


def decompose_random_ops(workdir: str, seed: int) -> list[dict]:
    """Every (vertex count, group) cell DECOMPOSE_COPIES times, in seeded
    order, each with a seeded random base (edge probability 0.5) and a
    seeded random signature. Fixing the cell counts keeps the run's cost
    independent of the seed."""
    rng = random.Random(f"decompose-random/{seed}")
    cells = [(n, g) for n in DECOMPOSE_SIZES for g in DECOMPOSE_GROUPS] * DECOMPOSE_COPIES
    rng.shuffle(cells)
    ops = []
    for k, (n, orders) in enumerate(cells):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        chosen = tuple(p for p in pairs if rng.random() < 0.5) or (pairs[0],)
        elems = elements(orders)
        signature = {e: rng.choice(elems) for e in chosen}
        graph_path = _write(os.path.join(workdir, f"base{k}.txt"), edge_list_text((n, chosen)))
        sig_path = _write(os.path.join(workdir, f"sig{k}.txt"), signature_text(orders, signature))
        ops.append(
            {"kind": "decompose", "argv": ["verify-mota", "--graph", graph_path, "--signature", sig_path]}
        )
    return ops


def _iso_op(workdir: str, k: int, a, b, isomorphic: bool) -> dict:
    path_a = _write(os.path.join(workdir, f"a{k}.g6"), graph6(a) + "\n")
    path_b = _write(os.path.join(workdir, f"b{k}.g6"), graph6(b) + "\n")
    return {
        "kind": "iso",
        "argv": ["iso", path_a, path_b],
        "isomorphic": isomorphic,
        "a": [list(e) for e in a[1]],
        "b": [list(e) for e in b[1]],
    }


def iso_symmetric_pairs(seed: int) -> list[tuple]:
    """(A, B, isomorphic) triples; see iso_symmetric_ops."""
    rng = random.Random(f"iso-symmetric/{seed}")
    pairs = [(relabel(g, rng), relabel(g, rng), True) for g in SYMMETRIC_GRAPHS.values()]
    for base in (BASE_G, BASE_H):
        cotree = cotree_edges(base)
        for orders in ISO_LIFT_GROUPS:
            classes = list(product(elements(orders), repeat=len(cotree)))
            picks = [len(classes) * t // ISO_CLASSES_PER_CELL for t in range(ISO_CLASSES_PER_CELL)]

            def class_lift(c):
                return lift(base, orders, switched_signature(base, orders, cotree, classes[c], rng))

            for t, c in enumerate(picks):
                a = class_lift(c)
                if t % 2 == 0:
                    pairs.append((relabel(a, rng), relabel(class_lift(c), rng), True))
                    continue
                # the next class in order whose charpoly differs from A's
                traces_a = walk_traces(a)
                for step in range(1, len(classes)):
                    b = class_lift((c + step) % len(classes))
                    if walk_traces(b) != traces_a:
                        break
                else:
                    raise RuntimeError(f"no class with a different charpoly over {orders}")
                pairs.append((relabel(a, rng), relabel(b, rng), False))
    lift_g = permutation_lift(BASE_G, S3_SIGNATURE_G)
    lift_h = permutation_lift(BASE_H, S3_SIGNATURE_H)
    # cospectral but with different degree sequences, hence not isomorphic
    if degree_sequence(lift_g) == degree_sequence(lift_h):
        raise RuntimeError("the bundled lift pair lost its degree-sequence certificate")
    pairs.append((relabel(lift_g, rng), relabel(lift_h, rng), False))
    rng.shuffle(pairs)
    return pairs


def iso_symmetric_ops(workdir: str, seed: int) -> list[dict]:
    """Seeded relabelings of symmetric graphs (isomorphic); lifts of the
    bundled bases over ISO_LIFT_GROUPS, ISO_CLASSES_PER_CELL switching
    classes per cell taken at a fixed stride, each paired with a gauge-switched
    relabeled copy (isomorphic) or with a lift of another class with a
    different charpoly (not isomorphic); and the bundled 18-vertex cospectral
    non-isomorphic pair. The classes are fixed so that the cost does not
    depend on the seed; the seed picks gauges and relabelings."""
    return [_iso_op(workdir, k, a, b, iso) for k, (a, b, iso) in enumerate(iso_symmetric_pairs(seed))]


WORKLOADS = {
    "search-z3": search_z3_ops,
    "decompose-random": decompose_random_ops,
    "iso-symmetric": iso_symmetric_ops,
}
