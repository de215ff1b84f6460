"""Cospectrality conditions for the bundled base pair, the corollary-style
signature generator, and search for cospectral lift pairs.

The two conditions are implemented as exact group-element equations rather
than per-character complex equations: the underlying identity must hold for
every character, and by character orthogonality that is equivalent to a
multiset equality of group elements, which is exact and fast to test.

Switching a signature by vertex potentials f, s'(i, j) = f(i) s(i, j) f(j)^-1,
relabels every fiber of its lift and keeps every net voltage around a closed
walk (Gross & Tucker, Topological Graph Theory, 1987, section 2.5). So a
lift's spectrum, its isomorphism class and both conditions depend only on the
signature's switching class, and search does its expensive work once per
class rather than once per signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import accumulate
from typing import Iterator

from . import fixtures
from .algebra import AbelianGroup, GroupSpec, compose, fiber_action, inverse, power_product
from .graphs import Graph, degree_sequence, neighbor_lists, reached
from .isomorphism import canonical_form
from .lifts import NonAbelianSignature, Signature, build_lift, make_signature
from .spectra import cospectral, lift_charpoly


class WrongBaseGraph(ValueError):
    """The base graphs do not fit the request: a condition check was given a
    signature on the wrong base graph, or search was given bases that are
    not cospectral."""


class Condition1Violated(ValueError):
    """check_condition2 requires check_condition1 to hold first."""


class BudgetExceeded(RuntimeError):
    """The enumeration budget is below 1, which every signature space exceeds,
    or the signature space is larger than it."""


# The closed walks whose net voltages the conditions compare.
CONDITION1_CYCLE = (2, 4, 5, 3)
ALPHA_CYCLE = (2, 3, 4)
BETA_CYCLE = (3, 5, 6)
GAMMA_CYCLE = (1, 2, 3)


def net_voltage(s: Signature, walk: tuple[int, ...]):
    """Product of the voltages met along the closed walk w0 -> w1 -> ... -> w0
    of an abelian signature; an edge traversed against its stored orientation
    (i < j) contributes its inverse."""
    steps = zip(walk, walk[1:] + walk[:1])
    return power_product(s.group, ((s.get(a, b), 1 if a < b else -1) for a, b in steps))


def _require_abelian(s: Signature) -> None:
    if not s.is_abelian():
        raise NonAbelianSignature("condition checks require an abelian signature")


def _require_base(s: Signature, base: Graph, side: str) -> None:
    if s.base != base:
        raise WrongBaseGraph(f"signature is not on the bundled base graph {side}")


def check_condition1(sg: Signature) -> bool:
    """First cospectrality condition on the G side:
    s(2,4) * s(4,5) = s(2,3) * s(3,5), i.e. the net voltage around the
    4-cycle 2-4-5-3 is trivial."""
    _require_abelian(sg)
    _require_base(sg, fixtures.BASE_G, "G")
    return net_voltage(sg, CONDITION1_CYCLE) == sg.group.identity()


def check_condition2(sg: Signature, sh: Signature) -> bool:
    """Second cospectrality condition, assuming the first one holds:
    with alpha = x*v*w^-1 on the G side and beta = y1*r1*z1^-1,
    gamma = u1*w1*v1^-1 on the H side, the multisets
    {alpha, alpha^-1, alpha, alpha^-1} and {beta, beta^-1, gamma, gamma^-1}
    must be equal, that is, beta and gamma each lie in {alpha, alpha^-1}.
    alpha is the net voltage around triangle 2-3-4 of G; beta and gamma are
    those around triangles 3-5-6 and 1-2-3 of H."""
    holds = check_condition1(sg)
    _require_abelian(sh)
    _require_base(sh, fixtures.BASE_H, "H")
    if sg.group != sh.group:
        raise WrongBaseGraph("the two signatures use different groups")
    if not holds:
        raise Condition1Violated("the first condition does not hold for the G-side signature")
    alpha = net_voltage(sg, ALPHA_CYCLE)
    pair = (alpha, inverse(sg.group, alpha))
    return net_voltage(sh, BETA_CYCLE) in pair and net_voltage(sh, GAMMA_CYCLE) in pair


def conditions_hold(sg: Signature, sh: Signature) -> bool:
    """Both conditions, without raising when the first fails."""
    try:
        return check_condition2(sg, sh)
    except Condition1Violated:
        return False


def corollary_generate(
    gr: AbelianGroup,
    u=None,
    v=None,
    w=None,
    x=None,
    y=None,
    r=None,
    v1=None,
    x1=None,
) -> tuple[Signature, Signature]:
    """Generate a signature pair from the free parameters of the substitution
    z := v*y*w^-1, u1 = y1 = x, w1 = r1 = v, z1 = w.

    Unset parameters default to the identity. The result always passes the
    first condition; it passes the second when v1 is chosen as w. Callers are
    expected to verify cospectrality directly rather than trust the
    substitution: this is a candidate generator.
    """
    ident = gr.identity()
    u, v, w, x, y, r, v1, x1 = (ident if p is None else p for p in (u, v, w, x, y, r, v1, x1))
    z = compose(gr, compose(gr, v, y), inverse(gr, w))
    # voltages in each base's canonical edge order: G's 12 23 24 34 35 45 56, H's 12 13 23 34 35 36 56
    sg = make_signature(fixtures.BASE_G, gr, dict(zip(fixtures.BASE_G.edges, (u, v, w, x, y, z, r))))
    sh = make_signature(fixtures.BASE_H, gr, dict(zip(fixtures.BASE_H.edges, (x, v1, v, x1, x, w, v))))
    return sg, sh


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchOptions:
    """filter_by_theorem keeps only condition-passing pairs (bundled pair
    only); budget caps the signatures per side."""

    filter_by_theorem: bool = False
    budget: int = 10**6


@dataclass(frozen=True, slots=True)
class SearchResult:
    rank_g: int
    rank_h: int
    sig_g: Signature
    sig_h: Signature
    charpoly: tuple[int, ...]
    conditions_satisfied: bool | None
    non_isomorphic: bool


def signature_count(base: Graph, gr: GroupSpec) -> int:
    return gr.order() ** len(base.edges)


def _digits(rank: int, k: int, width: int) -> list[int]:
    """Base-k digits of rank, most significant first."""
    digits = [0] * width
    for pos in range(width - 1, -1, -1):
        rank, digits[pos] = divmod(rank, k)
    return digits


def _expand(mul: list[list[int]], parts) -> list[int]:
    """The product of one element index from each part, for every choice, the
    first part most significant, under the multiplication table mul."""
    products = [0]
    for part in parts:
        products = [mul[x][p] for x in products for p in part]
    return products


def signature_from_rank(base: Graph, gr: GroupSpec, rank: int) -> Signature:
    """Signature with lexicographic index `rank`: the first canonical edge is
    the most significant digit, elements in enumeration order."""
    elems = gr.elements()
    k = len(elems)
    m = len(base.edges)
    if not 0 <= rank < k**m:
        raise ValueError(f"rank {rank} outside 0..{k ** m - 1}")
    digits = _digits(rank, k, m)
    return Signature(base, gr, {e: elems[d] for e, d in zip(base.edges, digits)})


class SwitchingClasses:
    """The switching classes of the signatures on one base over an abelian
    group.

    A BFS spanning forest is fixed, each tree rooted at its least vertex and
    each child's parent its earliest reached neighbour. Each cotree edge
    (i, j), i < j, closes one fundamental cycle: from i to j, then back along
    the forest. The class key is the net voltage around each, in cotree
    order; it is also the cotree of the class representative, the signature
    the forest's vertex potentials switch to the identity on every forest
    edge. Every one of the |Gr|^beta keys occurs, beta = m - n + c, and a
    class is numbered by the rank of its key (first cotree edge most
    significant, elements in enumeration order), 0 <= number < count.
    """

    def __init__(self, base: Graph, gr: AbelianGroup):
        self.base = base
        self.group = gr
        self.elements = gr.elements()
        k, m = len(self.elements), len(base.edges)
        # element indices, the identity 0: _mul[a][b] = a*b, a's fiber action
        self._mul = [fiber_action(gr, a) for a in self.elements]
        self._neg = [row.index(0) for row in self._mul]
        position = {edge: e for e, edge in enumerate(base.edges)}
        adj = neighbor_lists(base)
        reach = [-1] * base.n  # vertex -> its place in its tree's BFS order
        path = [[0] * m for _ in range(base.n)]  # vertex -> each edge's power on the forest path to it
        for root in range(base.n):
            if reach[root] < 0:
                order = reached(adj, [root])
                for place, v in enumerate(order):
                    reach[v] = place
                for v in order[1:]:  # each child's parent is its earliest reached neighbour
                    u = min(adj[v], key=reach.__getitem__)
                    path[v] = path[u][:]
                    path[v][position[(u + 1, v + 1) if u < v else (v + 1, u + 1)]] = 1 if u < v else -1
        in_tree = {e for powers in path for e, power in enumerate(powers) if power}
        self._cotree = [
            (e, i - 1, j - 1) for e, (i, j) in enumerate(base.edges) if e not in in_tree
        ]
        self.count = k ** len(self._cotree)
        # _parts[p][e][d]: key digit p of voltage d on edge e alone; cotree edge
        # p's cycle meets edge e at power 0, 1 or -1, and maps[-1] is the inverse
        maps = ([0] * k, list(range(k)), self._neg)
        self._parts = [
            [maps[a - b + (f == e)] for f, (a, b) in enumerate(zip(path[i], path[j]))]
            for e, i, j in self._cotree
        ]
        self.walk_table = self._closed_walks(adj)

    def _closed_walks(self, adj) -> dict[tuple[int, ...], tuple[int, ...]]:
        """The short-walk table: for each crossing vector c, the number of
        closed walks of each length 1..n that cross each cotree edge e, i < j,
        c_e times more from i to j than back, mod the exponent K. On a class
        representative, the identity on the forest, such a walk's net voltage
        is x^c, the product of x_e^c_e over the class key x, which c mod K
        fixes. One dynamic programme over (vertex, c) walks every start at
        once: field s of a count, as in lift_charpoly, counts the walks from s."""
        n, k = self.base.n, self.group.exponent()
        crossing = {}  # (u, v) -> (cotree position, sign) of a cotree edge
        for p, (_, i, j) in enumerate(self._cotree):
            crossing[i, j], crossing[j, i] = (p, 1), (p, -1)
        width = n * max(map(len, adj), default=0).bit_length() + 1
        walks = [{(0,) * len(self._cotree): 1 << (v * width)} for v in range(n)]
        table: dict[tuple[int, ...], list[int]] = {}
        for length in range(n):
            step: list[dict[tuple[int, ...], int]] = [{} for _ in range(n)]
            for u, held in enumerate(walks):
                for v in adj[u]:
                    p, sign = crossing.get((u, v), (-1, 0))
                    into = step[v]
                    for c, count in held.items():
                        to = c if p < 0 else c[:p] + ((c[p] + sign) % k,) + c[p + 1 :]
                        into[to] = into.get(to, 0) + count
            walks = step
            for s, held in enumerate(walks):
                for c, count in held.items():
                    if closed := count >> (s * width) & ((1 << width) - 1):
                        table.setdefault(c, [0] * n)[length] += closed
        return {c: tuple(counts) for c, counts in table.items()}

    def walk_keys(self) -> list[tuple[int, ...]]:
        """(W_1, ..., W_n) of every class, by class number: the closed walks of
        each length whose net voltage x^c is the identity. A lift walk from
        (i, a) over a closed base walk of net voltage g ends at (i, a*g), so
        |Gr| * W_k is tr(A^k) of the class's lift. Each c's x^c is expanded
        over all keys a cotree edge at a time, by _expand, and its counts,
        packed into one integer, are added to the keys it takes to the identity."""
        mul, k = self._mul, self.group.exponent()
        powers = [list(accumulate([row] * (k - 1), lambda a, r: r[a], initial=0)) for row in mul]
        width = max(map(sum, zip(*self.walk_table.values())), default=0).bit_length() + 1
        packed = [0] * self.count
        for c, counts in self.walk_table.items():
            values = _expand(mul, ([power[e] for power in powers] for e in c))
            bits = sum(m << (i * width) for i, m in enumerate(counts))
            packed = [key if v else key + bits for key, v in zip(packed, values)]
        return [tuple(key >> (i * width) & ((1 << width) - 1) for i in range(self.base.n)) for key in packed]

    @cached_property
    def _half_tables(self) -> tuple[list[list[int]], list[list[int]], dict[tuple[int, ...], list[int]]]:
        """Rank r = prefix * |Gr|^(m - m//2) + suffix splits the voltages into
        the leading m // 2 edges' and the trailing edges'. Key digit p of r is
        heads[p][prefix] * tails[p][suffix], each digit's parts expanded once
        over its half; suffixes maps the trailing key digits to their suffixes."""
        half = len(self.base.edges) // 2
        heads = [_expand(self._mul, part[:half]) for part in self._parts]
        tails = [_expand(self._mul, part[half:]) for part in self._parts]
        suffixes: dict[tuple[int, ...], list[int]] = {}
        for suffix in range(len(self.elements) ** (len(self.base.edges) - half)):
            suffixes.setdefault(tuple(tail[suffix] for tail in tails), []).append(suffix)
        return heads, tails, suffixes

    def class_ids(self) -> Iterator[int]:
        """The class of every signature, in rank order: each leading prefix
        yields its suffixes' ids, its key digits combined with theirs."""
        heads, tails, _ = self._half_tables
        k, m = len(self.elements), len(self.base.edges)
        for prefix in range(k ** (m // 2)):
            ids = [0] * k ** (m - m // 2)
            for head, tail in zip(heads, tails):
                row = self._mul[head[prefix]]
                ids = [cid * k + row[x] for cid, x in zip(ids, tail)]
            yield from ids

    def ranks(self, cid: int) -> list[int]:
        """The ranks of the signatures of class cid, in order: for each leading
        prefix, the suffixes whose key digits complete the prefix's to cid's."""
        heads, _, suffixes = self._half_tables
        k, m, mul, neg = len(self.elements), len(self.base.edges), self._mul, self._neg
        digits, width, ranks = _digits(cid, k, len(self._cotree)), k ** (m - m // 2), []
        for prefix in range(k ** (m // 2)):
            rest = tuple(mul[x][neg[head[prefix]]] for x, head in zip(digits, heads))
            ranks.extend(map((prefix * width).__add__, suffixes.get(rest, ())))
        return ranks

    def class_of(self, s: Signature) -> int:
        """The number of the class of signature s: key digit p is the product
        of _parts[p][e] at each edge e's voltage."""
        digits = [self.group.index(s.assignments[e]) for e in self.base.edges]
        cid = 0
        for part in self._parts:
            cid = cid * len(self.elements) + _expand(self._mul, ([row[d]] for row, d in zip(part, digits)))[0]
        return cid

    def representative(self, cid: int) -> Signature:
        """The normalised signature of class cid."""
        assignments = dict.fromkeys(self.base.edges, self.group.identity())
        cotree_digits = _digits(cid, len(self.elements), len(self._cotree))
        for (e, _, _), d in zip(self._cotree, cotree_digits):
            assignments[self.base.edges[e]] = self.elements[d]
        return Signature(self.base, self.group, assignments)


def search(
    g: Graph, h: Graph, gr: AbelianGroup, options: SearchOptions = SearchOptions()
) -> list[SearchResult]:
    """The rows of iter_search, as a list."""
    return list(iter_search(g, h, gr, options))


def iter_search(
    g: Graph, h: Graph, gr: AbelianGroup, options: SearchOptions = SearchOptions()
) -> Iterator[SearchResult]:
    """Yield every pair of signatures on the two bases whose lifts are
    cospectral, in (rank_g, rank_h) order: the rows of rank_blocks, which
    checks the arguments before this returns, one SearchResult each; H
    signatures are built on their first row."""
    return _results(g, h, gr, rank_blocks(g, h, gr, options))


def _results(g: Graph, h: Graph, gr: AbelianGroup, blocks) -> Iterator[SearchResult]:
    sig_h = cache(partial(signature_from_rank, h, gr))
    for rank_g, _, poly, rows in blocks:
        sig_g = signature_from_rank(g, gr, rank_g)
        for rank_h, cond, non_iso in rows:
            yield SearchResult(rank_g, rank_h, sig_g, sig_h(rank_h), poly, cond, non_iso)


def rank_blocks(
    g: Graph, h: Graph, gr: AbelianGroup, options: SearchOptions = SearchOptions()
) -> Iterator[tuple[int, int, tuple[int, ...], list[tuple[int, bool | None, bool]]]]:
    """Yield the rows of iter_search grouped by G rank, without building a
    signature: (rank_g, class_g, charpoly, rows) for each G rank that has
    rows, in rank_g order, where rows is the G class's one shared list of
    (rank_h, conditions, non-isomorphic) in rank_h order. The arguments are
    checked before this returns; each G class is joined on its first rank."""
    if not isinstance(gr, AbelianGroup):
        raise NonAbelianSignature("search requires an abelian group")
    if not cospectral(g, h):
        raise WrongBaseGraph("search requires cospectral base graphs")
    if options.filter_by_theorem and (g, h) != (fixtures.BASE_G, fixtures.BASE_H):
        raise WrongBaseGraph("filter_by_theorem is only available on the bundled base pair")
    if options.budget < 1:
        raise BudgetExceeded(f"the budget must be at least 1 signature per side, got {options.budget}")
    total_g = signature_count(g, gr)
    total_h = signature_count(h, gr)
    if max(total_g, total_h) > options.budget:
        raise BudgetExceeded(
            f"{total_g} signatures on the G side and {total_h} on the H side; "
            f"the budget is {options.budget} per side"
        )
    return _blocks(g, h, gr, options.filter_by_theorem)


class ClassJoin:
    """The switching classes of bases g and h over Gr, joined by lift charpoly.

    Equal charpolys give equal power sums tr(A^k) = |Gr| * W_k, so classes
    of different walk keys (SwitchingClasses.walk_keys) are never
    cospectral. Only a class whose key the other side shares gets a
    charpoly, on its representative: a G class when pairs is asked for it,
    an H class when a G class of its key first is. A lift's vertices inherit
    their base vertex's degree, so lifts of bases with different degree
    sequences are never isomorphic; otherwise each class in a cospectral
    pair gets one canonical form.
    """

    def __init__(self, g: Graph, h: Graph, gr: AbelianGroup):
        self.classes_g = SwitchingClasses(g, gr)
        self.classes_h = SwitchingClasses(h, gr)
        self._keys_g = self.classes_g.walk_keys()
        self._cells_h: dict[tuple[int, ...], list[int]] = {}
        for ch, key in enumerate(self.classes_h.walk_keys()):
            self._cells_h.setdefault(key, []).append(ch)
        self._on_fixture = (g, h) == (fixtures.BASE_G, fixtures.BASE_H)
        self._same_degrees = degree_sequence(g) == degree_sequence(h)
        self._polys_h: dict[int, tuple[int, ...]] = {}
        self._forms_h: dict[int, tuple] = {}

    def pairs(self, cg: int) -> tuple[tuple[int, ...] | None, list[tuple[int, bool | None, bool]]]:
        """G class cg's charpoly, and (class_h, conditions, non-isomorphic)
        for each H class of the same charpoly, in class_h order; (None, [])
        for a G class whose walk key no H class shares."""
        if (cell := self._cells_h.get(self._keys_g[cg])) is None:
            return None, []
        rep_g = self.classes_g.representative(cg)
        poly = tuple(lift_charpoly(rep_g.base, rep_g))
        form_g, pairs = None, []
        for ch in cell:
            rep_h, non_iso = self.classes_h.representative(ch), True
            if ch not in self._polys_h:
                self._polys_h[ch] = tuple(lift_charpoly(rep_h.base, rep_h))
            if self._polys_h[ch] != poly:
                continue
            if self._same_degrees:
                if form_g is None:
                    form_g = canonical_form(build_lift(rep_g.base, rep_g)).edges
                if ch not in self._forms_h:
                    self._forms_h[ch] = canonical_form(build_lift(rep_h.base, rep_h)).edges
                non_iso = form_g != self._forms_h[ch]
            pairs.append((ch, conditions_hold(rep_g, rep_h) if self._on_fixture else None, non_iso))
        return poly, pairs


def _blocks(g: Graph, h: Graph, gr: AbelianGroup, filter_by_theorem: bool):
    join = ClassJoin(g, h, gr)
    ranks_h: dict[int, list[int]] = {}  # an H class's ranks, once a G class pairs with it
    blocks: dict[int, tuple] = {}  # G class -> (charpoly, rows)
    # One G class's rows have distinct rank_h, so sorting compares rank_h only;
    # the filter is on the bundled pair only, whose lifts get no canonical form.
    for rank_g, cg in enumerate(join.classes_g.class_ids()):
        block = blocks.get(cg)
        if block is None:
            poly, pairs = join.pairs(cg)
            pairs = [pair for pair in pairs if pair[1] or not filter_by_theorem]
            for ch, _, _ in pairs:
                if ch not in ranks_h:
                    ranks_h[ch] = join.classes_h.ranks(ch)
            rows = sorted((rank_h, cond, non_iso) for ch, cond, non_iso in pairs for rank_h in ranks_h[ch])
            block = blocks[cg] = poly, rows
        if block[1]:
            yield rank_g, cg, *block
