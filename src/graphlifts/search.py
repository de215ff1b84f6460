"""Cospectrality conditions for the bundled base pair, the corollary-style
signature generator, and search for cospectral lift pairs.

The two conditions are implemented as exact group-element equations rather
than per-character complex equations: the underlying identity must hold for
every character, and by character orthogonality that is equivalent to a
multiset equality of group elements, which is exact and fast to test. Each
group element involved is the net voltage around a cycle of a base graph.

Switching a signature by vertex potentials f, s'(i, j) = f(i) s(i, j) f(j)^-1,
relabels every fiber of its lift and keeps every net voltage around a closed
walk (Gross & Tucker, Topological Graph Theory, 1987, section 2.5). So a
lift's spectrum, its isomorphism class and both conditions depend only on the
signature's switching class, and search does its expensive work once per
class rather than once per signature.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator

from . import fixtures
from .algebra import AbelianGroup, GroupSpec, compose, fiber_action, inverse, power_product
from .graphs import Graph, degree_sequence, neighbor_lists
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
    sg = make_signature(
        fixtures.BASE_G,
        gr,
        {
            (1, 2): u,
            (2, 3): v,
            (2, 4): w,
            (3, 4): x,
            (3, 5): y,
            (4, 5): z,
            (5, 6): r,
        },
    )
    sh = make_signature(
        fixtures.BASE_H,
        gr,
        {
            (1, 2): x,
            (1, 3): v1,
            (2, 3): v,
            (3, 4): x1,
            (3, 5): x,
            (3, 6): w,
            (5, 6): v,
        },
    )
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

    A BFS spanning forest is fixed, each tree rooted at its least vertex.
    The vertex potentials accumulated along it switch every forest edge to
    the identity; the normalised voltages left on the cotree edges form the
    class key. Every one of the |Gr|^beta keys occurs, beta = m - n + c, and
    a class is numbered by the rank of its key (first cotree edge most
    significant, elements in enumeration order), 0 <= number < count.
    """

    def __init__(self, base: Graph, gr: AbelianGroup):
        self.base = base
        self.group = gr
        self.elements = gr.elements()
        # Tables of element indices; index 0 is the identity. _mul[a][b] is
        # the index of a*b: row a is the fiber action of elements[a], which
        # takes b to b*a = a*b.
        self._mul = [fiber_action(gr, a) for a in self.elements]
        self._neg = [row.index(0) for row in self._mul]
        position = {edge: e for e, edge in enumerate(base.edges)}
        adj = neighbor_lists(base)
        seen = [False] * base.n
        # (edge position, parent, child, parent < child), 0-based vertices
        self._tree: list[tuple[int, int, int, bool]] = []
        for root in range(base.n):
            if seen[root]:
                continue
            seen[root] = True
            queue = deque([root])
            while queue:
                u = queue.popleft()
                for v in adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        queue.append(v)
                        edge = (u + 1, v + 1) if u < v else (v + 1, u + 1)
                        self._tree.append((position[edge], u, v, u < v))
        in_tree = {t[0] for t in self._tree}
        self._cotree = [
            (e, i - 1, j - 1) for e, (i, j) in enumerate(base.edges) if e not in in_tree
        ]
        self.count = len(self.elements) ** len(self._cotree)

    def _class_of_digits(self, digits: list[int]) -> int:
        mul, neg = self._mul, self._neg
        potential = [0] * self.base.n
        for e, u, v, forward in self._tree:
            d = digits[e]
            potential[v] = mul[potential[u]][d if forward else neg[d]]
        k = len(self.elements)
        cid = 0
        for e, i, j in self._cotree:
            cid = cid * k + mul[mul[potential[i]][digits[e]]][neg[potential[j]]]
        return cid

    def class_ids(self) -> list[int]:
        """The class of every signature, indexed by its rank.

        The class key is a homomorphism of the edge voltages, so each key
        digit is the product of one part per edge: the key digit of that
        edge's voltage alone. Each digit is expanded over all ranks one edge
        at a time, the first edge most significant.
        """
        k, m, beta = len(self.elements), len(self.base.edges), len(self._cotree)
        mul = self._mul
        parts = []  # parts[e][d]: the key digits of element d on edge e alone
        for e in range(m):
            row = []
            for d in range(k):
                digits = [0] * m
                digits[e] = d
                row.append(_digits(self._class_of_digits(digits), k, beta))
            parts.append(row)
        ids = [0] * k**m
        for c in range(beta):
            keys = [0]
            for e in range(m):
                part = [parts[e][d][c] for d in range(k)]
                keys = [mul[x][p] for x in keys for p in part]
            ids = [cid * k + key for cid, key in zip(ids, keys)]
        return ids

    def class_of(self, s: Signature) -> int:
        """The number of the class of signature s."""
        return self._class_of_digits([self.group.index(s.assignments[e]) for e in self.base.edges])

    def representative(self, cid: int) -> Signature:
        """The normalised signature of class cid: the identity on the forest
        and the class key on the cotree."""
        assignments = dict.fromkeys(self.base.edges, self.group.identity())
        cotree_digits = _digits(cid, len(self.elements), len(self._cotree))
        for (e, _, _), d in zip(self._cotree, cotree_digits):
            assignments[self.base.edges[e]] = self.elements[d]
        return Signature(self.base, self.group, assignments)


def search(
    g: Graph, h: Graph, gr: AbelianGroup, options: SearchOptions = SearchOptions()
) -> list[SearchResult]:
    """Every pair of signatures on the two bases whose lifts are cospectral,
    in lexicographic (rank_g, rank_h) order: the rows of iter_search."""
    return list(iter_search(g, h, gr, options))


def iter_search(
    g: Graph, h: Graph, gr: AbelianGroup, options: SearchOptions = SearchOptions()
) -> Iterator[SearchResult]:
    """Yield every pair of signatures on the two bases whose lifts are
    cospectral, in lexicographic (rank_g, rank_h) order, as it is found.

    The arguments are checked before this returns. The rows are those of
    rank_blocks, one class join, expanded to one SearchResult each; H
    signatures are built on their first row.
    """
    return _results(g, h, gr, rank_blocks(g, h, gr, options))


def _results(g: Graph, h: Graph, gr: AbelianGroup, blocks) -> Iterator[SearchResult]:
    sigs_h: list[Signature | None] = [None] * signature_count(h, gr)
    for rank_g, _, poly, rows in blocks:
        sig_g = signature_from_rank(g, gr, rank_g)
        for rank_h, cond, non_iso in rows:
            sig_h = sigs_h[rank_h]
            if sig_h is None:
                sig_h = sigs_h[rank_h] = signature_from_rank(h, gr, rank_h)
            yield SearchResult(rank_g, rank_h, sig_g, sig_h, poly, cond, non_iso)


def rank_blocks(
    g: Graph, h: Graph, gr: AbelianGroup, options: SearchOptions = SearchOptions()
) -> Iterator[tuple[int, int, tuple[int, ...], list[tuple[int, bool | None, bool]]]]:
    """Yield the rows of iter_search grouped by G rank, without building a
    signature: (rank_g, class_g, charpoly, rows) for each G rank that has
    rows, in rank_g order, where rows is the G class's one shared list of
    (rank_h, conditions, non-isomorphic) in rank_h order.

    The arguments are checked before this returns. Each G class is joined
    on its first rank (ClassJoin.pairs) and its rows kept for later ranks.
    """
    if not isinstance(gr, AbelianGroup):
        raise NonAbelianSignature("search requires an abelian group")
    if not cospectral(g, h):
        raise WrongBaseGraph("search requires cospectral base graphs")
    if options.filter_by_theorem and (g, h) != (fixtures.BASE_G, fixtures.BASE_H):
        raise WrongBaseGraph(
            "filter_by_theorem is only available on the bundled base pair"
        )
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

    Each class gets one charpoly, on its normalised representative: each H
    class on construction, a G class when pairs is asked for it, which
    joins it to the H classes of equal charpoly with the fixture conditions.
    A lift's vertices inherit their base vertex's degree, so lifts of bases
    with different degree sequences are never isomorphic; otherwise each
    class in a cospectral pair gets one canonical form. Every lift has
    n*|Gr| vertices, so if a canonical form is refused, the first one is,
    before search yields any row.
    """

    def __init__(self, g: Graph, h: Graph, gr: AbelianGroup):
        self.classes_g = SwitchingClasses(g, gr)
        self.classes_h = SwitchingClasses(h, gr)
        self.reps_h = [self.classes_h.representative(c) for c in range(self.classes_h.count)]
        self._classes_h_by_poly: dict[tuple[int, ...], list[int]] = {}
        for ch, rep_h in enumerate(self.reps_h):
            self._classes_h_by_poly.setdefault(tuple(lift_charpoly(h, rep_h)), []).append(ch)
        self._on_fixture = (g, h) == (fixtures.BASE_G, fixtures.BASE_H)
        self._same_degrees = degree_sequence(g) == degree_sequence(h)
        self._forms_h: dict[int, tuple] = {}

    def pairs(self, cg: int) -> tuple[tuple[int, ...], list[tuple[int, bool | None, bool]]]:
        """G class cg's charpoly, and (class_h, conditions, non-isomorphic)
        for each H class of the same charpoly, in class_h order."""
        rep_g = self.classes_g.representative(cg)
        poly = tuple(lift_charpoly(rep_g.base, rep_g))
        form_g, pairs = None, []
        for ch in self._classes_h_by_poly.get(poly, ()):
            rep_h, non_iso = self.reps_h[ch], True
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
    ranks_h: list[list[int]] = [[] for _ in range(join.classes_h.count)]
    for rank_h, ch in enumerate(join.classes_h.class_ids()):
        ranks_h[ch].append(rank_h)
    blocks: dict[int, tuple] = {}  # G class -> (charpoly, rows)
    # One G class's rows have distinct rank_h, so sorting compares rank_h only;
    # the filter is on the bundled pair only, whose lifts get no canonical form.
    for rank_g, cg in enumerate(join.classes_g.class_ids()):
        block = blocks.get(cg)
        if block is None:
            poly, pairs = join.pairs(cg)
            rows = sorted(
                (rank_h, cond, non_iso)
                for ch, cond, non_iso in pairs
                if cond or not filter_by_theorem
                for rank_h in ranks_h[ch]
            )
            block = blocks[cg] = poly, rows
        if block[1]:
            yield rank_g, cg, *block
