"""Exact isomorphism testing via canonical forms for small graphs.

The canonical form is found by iterated color refinement plus backtracking
over color-class orderings. Colors are ranked by invariant profiles (never by
first-seen order), so the refinement itself is relabeling-invariant. The
backtracking individualizes one vertex of the first non-singleton class at a
time and keeps the lexicographically smallest adjacency bit-string over all
discrete labelings reached, reading the upper triangle in column-major order
so that a prefix of placed vertices determines a prefix of the string. Ties
inside a class are explored smallest-partial-string first, and branches whose
partial string already exceeds the best known are pruned.

Two leaves with equal strings give an automorphism: the permutation that
carries one leaf's vertex order onto the other's. The search records these
and prunes with them, after McKay & Piperno, "Practical graph isomorphism,
II" (J. Symb. Comput. 60, 2014). At each node, the recorded automorphisms
that fix the node's path of individualized vertices are joined into orbits,
and a child in the orbit of a sibling explored before it is skipped. When a
leaf equals the best one, the rest of its branch at the depth where its path
parts from the best leaf's path is skipped too: the automorphism carries the
best leaf's branch, explored in full, onto that branch. Refinement commutes
with relabeling, so a skipped subtree is the image of an explored one under
an automorphism and holds the same leaf strings, each met later in the search
order than its preimage. The pruned search therefore returns the same best
string and the same first leaf reaching it, hence the same edges and
relabeling, as the search without pruning.

Disconnected graphs are canonicalized one connected component at a time and
the component forms concatenated in a fixed invariant order; lifts are often
disjoint unions of isomorphic copies, and per-component search keeps those
out of the factorial worst case. Graphs above the vertex ceiling are refused.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, degree_sequence, from_edge_list, neighbor_lists

SIZE_CEILING = 64


class TooLarge(ValueError):
    """Graph exceeds the canonical-labeling size ceiling."""


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical edge set plus the relabeling that produced it.

    relabeling[v - 1] is the canonical label of input vertex v; applying it
    to the input graph's edges reproduces `edges` exactly.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    relabeling: tuple[int, ...]


def _refine(n: int, adj: list[list[int]], colors: list[int]) -> list[int]:
    while True:
        profiles = [
            (colors[v], tuple(sorted(colors[u] for u in adj[v]))) for v in range(n)
        ]
        rank = {p: i for i, p in enumerate(sorted(set(profiles)))}
        new = [rank[p] for p in profiles]
        if new == colors:
            return new
        colors = new


def _individualize(n: int, adj: list[list[int]], colors: list[int], v: int) -> list[int]:
    keyed = [(colors[u], 0 if u == v else 1) for u in range(n)]
    rank = {p: i for i, p in enumerate(sorted(set(keyed)))}
    return _refine(n, adj, [rank[p] for p in keyed])


def _prefix_bits(n: int, adj_sets: list[set[int]], colors: list[int]) -> tuple[int, ...]:
    """Column-major upper-triangle bits among the leading singleton classes."""
    slots: list[int | None] = [None] * n
    counts = [0] * n
    for c in colors:
        counts[c] += 1
    for v, c in enumerate(colors):
        if counts[c] == 1:
            slots[c] = v
    placed = []
    for c in range(n):
        if slots[c] is None or counts[c] != 1:
            break
        placed.append(slots[c])
    bits = []
    for j in range(1, len(placed)):
        vj = placed[j]
        for i in range(j):
            bits.append(1 if placed[i] in adj_sets[vj] else 0)
    return tuple(bits)


def _components(g: Graph) -> list[list[int]]:
    """Connected components as sorted 1-based vertex lists, ordered by least
    vertex."""
    adj = neighbor_lists(g)
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v + 1)
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


def canonical_form(g: Graph) -> CanonicalForm:
    if g.n > SIZE_CEILING:
        raise TooLarge(f"canonical form supports at most {SIZE_CEILING} vertices, got {g.n}")
    n = g.n
    if n == 0:
        return CanonicalForm(0, (), ())
    comps = _components(g)
    if len(comps) > 1:
        return _concatenate_components(g, comps)
    return _canonical_connected(g)


def _concatenate_components(g: Graph, comps: list[list[int]]) -> CanonicalForm:
    by_vertex = {}
    for idx, comp in enumerate(comps):
        for v in comp:
            by_vertex[v] = idx
    comp_edges: list[list[tuple[int, int]]] = [[] for _ in comps]
    for i, j in g.edges:
        comp_edges[by_vertex[i]].append((i, j))
    pieces = []
    for idx, comp in enumerate(comps):
        local = {v: k + 1 for k, v in enumerate(comp)}
        sub = from_edge_list(len(comp), [(local[i], local[j]) for i, j in comp_edges[idx]])
        pieces.append((comp, local, _canonical_connected(sub)))
    # order components by an isomorphism-invariant key; equal keys mean
    # identical forms, so the concatenation does not depend on tie order
    pieces.sort(key=lambda p: (p[2].n, p[2].edges))
    relabeling = [0] * g.n
    edges: list[tuple[int, int]] = []
    offset = 0
    for comp, local, form in pieces:
        for v in comp:
            relabeling[v - 1] = offset + form.relabeling[local[v] - 1]
        edges.extend((offset + a, offset + b) for a, b in form.edges)
        offset += form.n
    return CanonicalForm(g.n, tuple(sorted(edges)), tuple(relabeling))


def _canonical_connected(g: Graph) -> CanonicalForm:
    n = g.n
    if len(g.edges) == n * (n - 1) // 2:
        # complete graph: every ordering yields the same all-ones string
        all_pairs = tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))
        return CanonicalForm(n, all_pairs, tuple(range(1, n + 1)))
    adj = neighbor_lists(g)
    adj_sets = [set(row) for row in adj]
    best: dict = {"bits": None, "colors": None, "path": None}
    # automorphisms[k][v] is the image of vertex v; each one maps the best
    # leaf's vertex order onto the order of a later leaf with the same string
    automorphisms: list[list[int]] = []

    def full_bits(order: list[int]) -> tuple[int, ...]:
        bits = []
        for j in range(1, n):
            vj = order[j]
            for i in range(j):
                bits.append(1 if order[i] in adj_sets[vj] else 0)
        return tuple(bits)

    def orbits(path: list[int]) -> list[int]:
        """Orbit representative of every vertex under the recorded
        automorphisms that fix each vertex of `path`."""
        rep = list(range(n))

        def find(v: int) -> int:
            while rep[v] != v:
                rep[v] = rep[rep[v]]
                v = rep[v]
            return v

        for gamma in automorphisms:
            if all(gamma[p] == p for p in path):
                for v in range(n):
                    a, b = find(v), find(gamma[v])
                    if a != b:
                        rep[max(a, b)] = min(a, b)
        return [find(v) for v in range(n)]

    def search(colors: list[int], path: list[int]) -> int | None:
        """Explore the node reached by individualizing the vertices of
        `path` in turn. Returns None, or, after a leaf equal to the best
        one, the depth where the two leaves' paths part, to resume there."""
        prefix = _prefix_bits(n, adj_sets, colors)
        if best["bits"] is not None and prefix > best["bits"][: len(prefix)]:
            return None
        counts = [0] * n
        for c in colors:
            counts[c] += 1
        target = next((c for c in range(n) if counts[c] > 1), None)
        if target is None:
            order = [0] * n
            for v, c in enumerate(colors):
                order[c] = v
            bits = full_bits(order)
            if best["bits"] is None or bits < best["bits"]:
                best["bits"] = bits
                best["colors"] = list(colors)
                best["path"] = path
            elif bits == best["bits"]:
                automorphisms.append([order[c] for c in best["colors"]])
                common = 0
                while best["path"][common] == path[common]:
                    common += 1
                return common
            return None
        # Members of one orbit root images of one subtree and share their
        # prefix bits, so the least of them sorts first and only it is
        # individualized; orbits grow as siblings find automorphisms.
        orbit = orbits(path)
        members = sorted(v for v in range(n) if colors[v] == target and orbit[v] == v)
        children = []
        for v in members:
            child = _individualize(n, adj, colors, v)
            children.append((_prefix_bits(n, adj_sets, child), v, child))
        children.sort(key=lambda t: (t[0], t[1]))
        explored: list[int] = []
        seen_automorphisms = len(automorphisms)
        for _, v, child in children:
            if len(automorphisms) > seen_automorphisms:
                seen_automorphisms = len(automorphisms)
                orbit = orbits(path)
            if any(orbit[u] == orbit[v] for u in explored):
                continue
            explored.append(v)
            back = search(child, path + [v])
            if back is not None and back < len(path):
                return back
        return None

    search(_refine(n, adj, [0] * n), [])
    colors = best["colors"]
    relabeling = tuple(colors[v] + 1 for v in range(n))
    edges = sorted(
        (min(relabeling[i - 1], relabeling[j - 1]), max(relabeling[i - 1], relabeling[j - 1]))
        for i, j in g.edges
    )
    return CanonicalForm(n, tuple(edges), relabeling)


def are_isomorphic(g: Graph, h: Graph) -> tuple[bool, tuple[int, ...] | None]:
    """Decide isomorphism; on success also return the certifying bijection,
    as a tuple whose (v - 1)-th entry is the image in h of vertex v of g.

    The bijection is validated by direct edge-set comparison before being
    returned.
    """
    for graph in (g, h):
        if graph.n > SIZE_CEILING:
            raise TooLarge(f"isomorphism supports at most {SIZE_CEILING} vertices, got {graph.n}")
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False, None
    if degree_sequence(g) != degree_sequence(h):
        return False, None
    cg, ch = canonical_form(g), canonical_form(h)
    if cg.edges != ch.edges:
        return False, None
    inverse_h = [0] * h.n
    for v in range(1, h.n + 1):
        inverse_h[ch.relabeling[v - 1] - 1] = v
    mapping = tuple(inverse_h[cg.relabeling[v - 1] - 1] for v in range(1, g.n + 1))
    mapped = {
        (min(mapping[i - 1], mapping[j - 1]), max(mapping[i - 1], mapping[j - 1]))
        for i, j in g.edges
    }
    if mapped != set(h.edges):
        raise AssertionError("canonical forms matched but the certificate failed validation")
    return True, mapping


def relabeled(g: Graph, perm: tuple[int, ...]) -> Graph:
    """Apply a relabeling (perm[v - 1] = new label of v) to a graph."""
    return from_edge_list(
        g.n, [(perm[i - 1], perm[j - 1]) for i, j in g.edges]
    )
