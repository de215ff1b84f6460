"""Exact isomorphism testing via canonical forms for small graphs.

The canonical form is found by colour refinement plus backtracking. A
search node holds one ordered partition of the vertices as four lists:
`order`, the vertices by position; `pos`, its inverse; `label[v]`, the last
position of v's cell; and `start[e]`, the first position of the cell that
ends at e. The root's first round orders the cells by degree, ascending.
Each later round splits a cell next to a vertex that moved in the round
before by its members' sorted moved-neighbour labels with n appended, the
pieces in key order, and the last piece keeps the cell's label. That splits
the cell as its members' full sorted neighbour labels would, in the same
order: members of a cell shared their profile a round ago, and a moved
label lies strictly inside its old cell's range, where no unmoved label
lies, so two members' full tuples first differ at a moved label, and there
the keys compare alike: more copies of a smaller label sort first, and a
key that runs out meets n and sorts after. Members with no moved neighbour
have the key (n,), so they form the last piece and never move. Pieces never
come in first-seen order, so refinement is relabeling-invariant. A round
visits only the edges of moved vertices. The order of the vertices inside a
cell of more than one vertex reaches no output: the search sorts a cell's
members before it individualizes them, prefix bits read only singleton
cells, and a leaf's labels are positions. The backtracking individualizes
one vertex of the first non-singleton cell at a time and keeps the
lexicographically smallest adjacency bit-string over all discrete
partitions reached, reading the upper triangle in column-major order so
that a prefix of placed vertices determines a prefix of the string. Ties
inside a cell are explored smallest-partial-string first, and branches
whose partial string already exceeds the best known are pruned. Siblings
share the node's partial string, so the columns of their newly placed
vertices order them as their whole partial strings would. Strings are
`bytes` of one 0 or 1 each, which order as the tuples of those bits would,
so comparing and slicing them run as single memory compares and copies.

Two leaves with equal strings give an automorphism: the permutation that
carries one leaf's vertex order onto the other's. The search records these
and prunes with them, after McKay & Piperno, "Practical graph isomorphism,
II" (J. Symb. Comput. 60, 2014). Each node keeps the recorded automorphisms
that fix its path of individualized vertices, the ones its parent kept that
also fix its own vertex, and joins them into orbits in a union-find whose
roots are the least vertices of their orbits; after each child it folds in,
unchecked, the automorphisms recorded since. Each fixes the path: it was
recorded below the node at a leaf equal to the best one, and every node
deeper than where the two leaves' paths part returned at once, so the node
lies on both paths; its path's vertices, individualized in the same order,
take one label in both leaves, and the automorphism, which maps one leaf's
vertex order onto the other's, fixes them. Refinement commutes with
relabeling, so such an automorphism maps the node's partition, and each
cell, onto itself; an orbit that meets the cell being individualized
therefore lies inside it, and a union-find over that cell alone finds it.
Each automorphism is kept with its links, the least vertex of each of its
cycles paired with the cycle's other vertices: a cycle lies inside the cell
or outside it, and joining its links joins the cycle, so a join costs the
vertices the automorphism moves, not n. A child in the orbit of a sibling
explored before it is skipped. When a leaf equals the best one, the rest of
its branch at the depth where its path parts from the best leaf's path is
skipped too: the automorphism carries the best leaf's branch, explored in
full, onto that branch. As refinement commutes with relabeling, a skipped
subtree is the image of an explored one under an automorphism and holds the
same leaf strings, each met later in the search order than its preimage.
The pruned search therefore returns the same best string and the same first
leaf reaching it, hence the same edges and relabeling, as the search
without pruning.

Isomorphism takes one canonical form in full and searches the other graph
in target mode, with the first graph's string T as the target, after McKay
& Piperno's test. The search is the same, with two early exits. A node whose
prefix is less than T's prefix of the same length has only leaves below it
whose strings are less than T, so the second graph's canonical string is
less than T and the graphs are not isomorphic. A leaf whose string equals T
proves them isomorphic, so T is also the second graph's least string; the
search took exactly the steps of the full search until that leaf, which is
therefore the first leaf reaching the least string, the one the full search
returns, with the same relabeling. The nodes explored are thus an initial
segment of the full search's. Nodes whose prefix exceeds T's are not pruned:
the search would then reach no leaves, record no automorphisms and explore
every node whose prefix matches T's.

Every graph is canonicalized one connected component at a time, in full or
in target mode; lifts are often disjoint unions of isomorphic copies, and
per-component search keeps those out of the factorial worst case. A
component's leaf string is its own canonical string. Components are
concatenated by (vertex count, sorted canonical edges), an invariant order,
each offset past those before it, so the edges come out sorted. In target
mode each component's target is the least string of the first graph's
components of its vertex count, and a component of a count they lack means
the graphs are not isomorphic.

Graphs above the vertex ceiling are refused. A node holds its children's
partitions while it explores them, so a path holds at most n of them per
level, each of four lists of n, and time and memory grow with what the
path holds. A class of twins makes that bound tight: the first path of the
star K1,n-1 or of Kn/2,n/2 individualizes the twins one at a time, each
level building a child for every twin left, and every later branch
descends to a leaf, joining one recorded automorphism per level below it.
Their time and memory grow as n^3, and at 512 vertices the memory would
reach gigabytes. The ceiling is where those shapes still finish within the
bound the tests state.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain

from .graphs import Graph, degree_sequence, from_edge_list, neighbor_lists

SIZE_CEILING = 192

# (label, start, order, pos): an ordered partition, as the module docstring says
Cells = tuple[list[int], list[int], list[int], list[int]]


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


def _refine(adj: list[list[int]], cells: Cells, moved: list[int]) -> None:
    """Refine `cells` in place until every member of a cell has the same
    multiset of neighbour labels, splitting cells by the key the module
    docstring gives. The members of each cell must share that multiset as of
    the labels before the vertices of `moved` moved, each to a piece of its
    cell ahead of the piece that kept the cell's label."""
    label, start, order, pos = cells
    n = len(order)
    while moved:
        hits: dict[int, list[int]] = {}  # hit vertex -> its moved neighbours' labels
        by_cell: dict[int, list[int]] = {}  # cell label -> its hit vertices
        for w in moved:
            x = label[w]
            for u in adj[w]:
                e = label[u]
                if start[e] != e:
                    labels = hits.get(u)
                    if labels is None:
                        hits[u] = [x]
                        by_cell.setdefault(e, []).append(u)
                    else:
                        labels.append(x)
        # from one moved vertex, every hit vertex has the one key (x, n)
        one_key = len(moved) == 1
        moved = []
        for e, hit in by_cell.items():
            s = start[e]
            if one_key:
                pieces = [hit]
            else:
                keyed: dict[tuple[int, ...], list[int]] = {}
                for u in hit:
                    labels = hits[u]
                    labels.sort()
                    labels.append(n)
                    keyed.setdefault(tuple(labels), []).append(u)
                pieces = [keyed[key] for key in sorted(keyed)]
            if len(hit) > e - s:
                # fully hit: the last piece stays behind and keeps the label
                if len(pieces) == 1:
                    continue
                pieces.pop()
            # swap each piece into the front of what is left of the cell
            for piece in pieces:
                for u in piece:
                    w = order[s]
                    order[pos[u]], pos[w] = w, pos[u]
                    order[s], pos[u] = u, s
                    s += 1
                last = s - 1
                start[last] = s - len(piece)
                for u in piece:
                    label[u] = last
                moved.extend(piece)
            start[e] = s


def _root(adj: list[list[int]]) -> Cells:
    """The refined partition of the unit colouring. Its first round splits
    the one cell by degree, the pieces in ascending order."""
    n = len(adj)
    order = sorted(range(n), key=lambda v: len(adj[v]))
    last = {len(adj[v]): p for p, v in enumerate(order)}
    label = [last[len(row)] for row in adj]
    start = [0] * n
    pos = [0] * n
    for p in reversed(range(n)):
        start[label[order[p]]] = p
        pos[order[p]] = p
    cells = (label, start, order, pos)
    _refine(adj, cells, order[: start[n - 1]])
    return cells


def _individualize(adj: list[list[int]], cells: Cells, v: int) -> Cells:
    """A refined copy of `cells` with v split off its cell, ahead of the
    rest of it: v moves to the cell's first position and the rest keeps the
    cell's label."""
    label, start, order, pos = (x[:] for x in cells)
    e = label[v]
    s = start[e]
    w = order[s]
    order[pos[v]], pos[w] = w, pos[v]
    order[s], pos[v] = v, s
    label[v] = start[s] = s
    start[e] = s + 1
    child = (label, start, order, pos)
    _refine(adj, child, [v])
    return child


def _prefix_bits(adj: list[list[int]], cells: Cells, placed: int = 0) -> tuple[bytes, int]:
    """Column-major upper-triangle bits among the leading singleton cells,
    one byte each, from the column of position `placed` on, and the number
    of those cells: n if the partition is discrete, else the first position
    of a cell of more than one vertex. The first `placed` positions must be
    singleton cells, whose columns every refinement of `cells` shares."""
    label, _, order, pos = cells
    bits = bytearray()
    n = len(order)
    while placed < n and label[order[placed]] == placed:
        base = len(bits)
        bits.extend(bytes(placed))
        for u in adj[order[placed]]:
            p = pos[u]
            if p < placed:
                bits[base + p] = 1
        placed += 1
    return bytes(bits), placed


def _components(adj: list[list[int]]) -> list[list[int]]:
    """Connected components as sorted 0-based vertex lists, ordered by least
    vertex."""
    seen = [False] * len(adj)
    comps = []
    for start in range(len(adj)):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


def canonical_form(g: Graph) -> CanonicalForm:
    if g.n > SIZE_CEILING:
        raise TooLarge(f"canonical form supports at most {SIZE_CEILING} vertices, got {g.n}")
    return _canonical(g)[0]


def _canonical(
    g: Graph, targets: dict[int, bytes] | None = None
) -> tuple[CanonicalForm, list[tuple[int, bytes]]] | None:
    """Canonical form of g from its components' forms, with each
    component's (vertex count, leaf string). Given `targets`, each component
    is searched in target mode against the target of its vertex count, and
    None means g is not isomorphic to the graph the targets come from."""
    adj = neighbor_lists(g)
    comps = _components(adj)
    if targets is not None and any(len(comp) not in targets for comp in comps):
        return None
    local = [0] * g.n  # vertex -> its position in its component
    for comp in comps:
        for k, v in enumerate(comp):
            local[v] = k
    pieces = []
    for comp in comps:
        # positions keep vertex order, so each neighbour list stays sorted
        sub = [[local[u] for u in adj[v]] for v in comp]
        found = _canonical_connected(sub, None if targets is None else targets[len(comp)])
        if found is None:
            return None
        labels, bits = found
        # each edge is listed from both ends; keep the end with the smaller label
        edges = sorted(
            (labels[a], labels[b]) for a, row in enumerate(sub) for b in row if labels[a] < labels[b]
        )
        pieces.append((len(comp), edges, comp, labels, bits))
    # order components by an isomorphism-invariant key; equal keys mean
    # identical forms, so the concatenation does not depend on tie order
    pieces.sort(key=lambda p: (p[0], p[1]))
    relabeling = [0] * g.n
    all_edges: list[tuple[int, int]] = []
    offset = 1
    for n, edges, comp, labels, _ in pieces:
        for v, label in zip(comp, labels):
            relabeling[v] = offset + label
        all_edges.extend((offset + a, offset + b) for a, b in edges)
        offset += n
    strings = [(n, bits) for n, _, _, _, bits in pieces]
    return CanonicalForm(g.n, tuple(all_edges), tuple(relabeling)), strings


def _find(rep: dict[int, int], v: int) -> int:
    while rep[v] != v:
        rep[v] = rep[rep[v]]
        v = rep[v]
    return v


def _join(rep: dict[int, int], links: Iterable[tuple[int, int]]) -> None:
    """Merge the classes of the union-find `rep`, whose keys are one cell,
    that automorphisms mapping the cell onto itself join on it; `links` are
    their _links. Every class keeps its least vertex as its root."""
    for v, w in links:
        if v in rep:
            a, b = _find(rep, v), _find(rep, w)
            if a < b:
                rep[b] = a
            elif b < a:
                rep[a] = b


def _links(gamma: list[int]) -> list[tuple[int, int]]:
    """Pairs that join each cycle of the permutation gamma: its least vertex
    with each other vertex of the cycle."""
    links = []
    seen = [False] * len(gamma)
    for v, w in enumerate(gamma):
        if w != v and not seen[v]:
            while not seen[w]:
                seen[w] = True
                if w != v:
                    links.append((v, w))
                w = gamma[w]
    return links


def _canonical_connected(
    adj: list[list[int]], target: bytes | None = None
) -> tuple[list[int], bytes] | None:
    """Canonical labeling of a connected graph, given as sorted 0-based
    neighbour lists, and the leaf string it reached: labels[v] is the
    0-based canonical label of vertex v. Given the leaf string `target` of a
    graph of the same order, stop at the first leaf that reaches it, or
    return None as soon as a node's prefix is less than the target's."""
    n = len(adj)
    if all(len(row) == n - 1 for row in adj):
        # complete graph: every ordering yields the same all-ones string
        return list(range(n)), b"\x01" * (n * (n - 1) // 2)
    best: dict = {"bits": None, "labels": None, "path": None}
    # (gamma, its _links) per recorded automorphism; gamma[v] is v's image
    automorphisms: list[tuple[list[int], list[tuple[int, int]]]] = []

    def search(
        cells: Cells,
        path: list[int],
        prefix: bytes,
        placed: int,
        fixing: list[tuple[list[int], list[tuple[int, int]]]],
    ) -> int | None:
        """Explore the node reached by individualizing the vertices of
        `path` in turn; `prefix` and `placed` are its prefix bits and their
        count of placed vertices, which at a leaf are the whole string and n,
        and `fixing` holds the recorded automorphisms that fix every vertex
        of `path` but the last. Returns None, or, after a leaf equal to the
        best one, the depth where the two leaves' paths part, to resume
        there; -1 ends the search."""
        if target is not None and prefix < target[: len(prefix)]:
            return -1
        if best["bits"] is not None and prefix > best["bits"][: len(prefix)]:
            return None
        if placed == n:
            if best["bits"] is None or prefix < best["bits"]:
                best["bits"] = prefix
                best["labels"] = cells[0]
                best["path"] = path
                if prefix == target:
                    return -1
            elif prefix == best["bits"]:
                gamma = [cells[2][c] for c in best["labels"]]
                automorphisms.append((gamma, _links(gamma)))
                common = 0
                while best["path"][common] == path[common]:
                    common += 1
                return common
            return None
        # one member per orbit of the automorphisms that fix the path
        if path:
            fixing = [aut for aut in fixing if aut[0][path[-1]] == path[-1]]
        label, _, order, _ = cells
        cell = order[placed : label[order[placed]] + 1]
        rep = {v: v for v in cell}
        _join(rep, chain.from_iterable(links for _, links in fixing))
        members = sorted(v for v in cell if rep[v] == v)
        children = []
        for v in members:
            child = _individualize(adj, cells, v)
            children.append((*_prefix_bits(adj, child, placed), v, child))
        children.sort(key=lambda t: (t[0], t[2]))
        explored: list[int] = []
        seen_automorphisms = len(automorphisms)
        for columns, child_placed, v, child in children:
            for aut in automorphisms[seen_automorphisms:]:
                fixing.append(aut)
                _join(rep, aut[1])
            seen_automorphisms = len(automorphisms)
            orbit = _find(rep, v)
            if any(_find(rep, u) == orbit for u in explored):
                continue
            explored.append(v)
            back = search(child, path + [v], prefix + columns, child_placed, fixing)
            if back is not None and back < len(path):
                return back
        return None

    root = _root(adj)
    if search(root, [], *_prefix_bits(adj, root), []) == -1 and best["bits"] != target:
        return None
    return best["labels"], best["bits"]


def are_isomorphic(g: Graph, h: Graph) -> tuple[bool, tuple[int, ...] | None]:
    """Decide isomorphism; on success also return the certifying bijection,
    as a tuple whose (v - 1)-th entry is the image in h of vertex v of g.
    h is searched in target mode against g's canonical form, as the module
    docstring gives. The bijection is validated: g relabeled by it is h."""
    for graph in (g, h):
        if graph.n > SIZE_CEILING:
            raise TooLarge(f"isomorphism supports at most {SIZE_CEILING} vertices, got {graph.n}")
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False, None
    if degree_sequence(g) != degree_sequence(h):
        return False, None
    cg, strings = _canonical(g)
    # sorted descending, the least string of each vertex count comes last
    found = _canonical(h, dict(sorted(strings, reverse=True)))
    if found is None or cg.edges != found[0].edges:
        return False, None
    ch = found[0]
    inverse_h = [0] * h.n
    for v in range(1, h.n + 1):
        inverse_h[ch.relabeling[v - 1] - 1] = v
    mapping = tuple(inverse_h[cg.relabeling[v - 1] - 1] for v in range(1, g.n + 1))
    if relabeled(g, mapping) != h:
        raise AssertionError("canonical forms matched but the certificate failed validation")
    return True, mapping


def relabeled(g: Graph, perm: tuple[int, ...]) -> Graph:
    """Apply a relabeling (perm[v - 1] = new label of v) to a graph."""
    return from_edge_list(
        g.n, [(perm[i - 1], perm[j - 1]) for i, j in g.edges]
    )
