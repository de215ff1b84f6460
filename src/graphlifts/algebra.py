"""Finite groups and exact polynomial arithmetic.

Composition order: a*b means "apply a, then b". Both conventions appear in
the literature; this one matches the lift rule s(i,j)*g_a = g_b read left to
right.

The order of a group's elements (AbelianGroup.index) and the action of a
voltage on the positions of a fibre (fiber_action) are defined here only.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import product


class AlgebraError(ValueError):
    """Base class for group and polynomial arithmetic errors."""


class ElementNotInGroup(AlgebraError):
    """An element does not belong to the group it was used with."""


class NonSquare(AlgebraError):
    """A matrix operation was given a non-square matrix."""


class BadGroupSpec(AlgebraError):
    """Unparseable group description."""


class BadElementText(AlgebraError):
    """Unparseable group element text."""


# ---------------------------------------------------------------------------
# Groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbelianGroup:
    """Direct product Z_{k1} x ... x Z_{kr}; elements are residue tuples."""

    orders: tuple[int, ...]

    def __post_init__(self):
        if not self.orders or any(k < 1 for k in self.orders):
            raise BadGroupSpec(f"cyclic orders must be positive, got {self.orders}")

    def order(self) -> int:
        return math.prod(self.orders)

    def fiber_size(self) -> int:
        return self.order()

    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.orders)

    def contains(self, e) -> bool:
        return (
            isinstance(e, tuple)
            and len(e) == len(self.orders)
            and all(type(a) is int and 0 <= a < k for a, k in zip(e, self.orders))
        )

    def elements(self) -> list[tuple[int, ...]]:
        """All elements in lexicographic residue order, identity first."""
        return [tuple(t) for t in product(*(range(k) for k in self.orders))]

    def index(self, e) -> int:
        """The position of e in elements(): its residues as mixed-radix digits."""
        require_member(self, e)
        i = 0
        for a, k in zip(e, self.orders):
            i = i * k + a
        return i

    def exponent(self) -> int:
        return math.lcm(*self.orders)


@dataclass(frozen=True)
class SymmetricGroup:
    """All permutations of {1..k}; elements are one-line image tuples."""

    degree: int

    def __post_init__(self):
        if self.degree < 1:
            raise BadGroupSpec(f"symmetric group degree must be positive, got {self.degree}")

    def order(self) -> int:
        return math.factorial(self.degree)

    def fiber_size(self) -> int:
        return self.degree

    def identity(self) -> tuple[int, ...]:
        return tuple(range(1, self.degree + 1))

    def contains(self, e) -> bool:
        return (
            isinstance(e, tuple)
            and len(e) == self.degree
            and all(type(p) is int for p in e)
            and sorted(e) == list(range(1, self.degree + 1))
        )


GroupSpec = AbelianGroup | SymmetricGroup


def require_member(gr: GroupSpec, e) -> None:
    """The membership check of every group operation and of make_signature,
    with its one error text."""
    if not gr.contains(e):
        raise ElementNotInGroup(f"{e!r} is not an element of {format_group(gr)}")


def compose(gr: GroupSpec, a, b):
    """The group operation a*b (apply a, then b)."""
    require_member(gr, a)
    require_member(gr, b)
    if isinstance(gr, AbelianGroup):
        return tuple((x + y) % k for x, y, k in zip(a, b, gr.orders))
    return tuple(b[a[i] - 1] for i in range(gr.degree))


def inverse(gr: GroupSpec, a):
    require_member(gr, a)
    if isinstance(gr, AbelianGroup):
        return tuple((-x) % k for x, k in zip(a, gr.orders))
    inv = [0] * gr.degree
    for i, img in enumerate(a):
        inv[img - 1] = i + 1
    return tuple(inv)


def power_product(gr: AbelianGroup, factors) -> tuple[int, ...]:
    """The product of e**n over the (e, n) factors, in an abelian group: the
    residue vectors summed with their integer exponents. Each e is checked
    once, where a fold through compose and inverse checks it at every step."""
    total = [0] * len(gr.orders)
    for e, n in factors:
        require_member(gr, e)
        for i, a in enumerate(e):
            total[i] += n * a
    return tuple(t % k for t, k in zip(total, gr.orders))


def fiber_action(gr: GroupSpec, g) -> list[int]:
    """The 0-based image of each fibre position under the voltage g: the
    right regular action e -> e*g on elements() for an abelian group, the
    natural action a -> g(a) on {1..k} for S_k."""
    require_member(gr, g)
    if isinstance(gr, SymmetricGroup):
        return [b - 1 for b in g]
    images = [0]
    for a, k in zip(g, gr.orders):
        images = [i * k + (b + a) % k for i in images for b in range(k)]
    return images


def perm_matrix(gr: GroupSpec, g) -> list[list[int]]:
    """The matrix of the fibre action, P[i][j] = 1 iff g takes position i to
    j: for an abelian group, the right regular representation."""
    return [[int(j == b) for j in range(gr.fiber_size())] for b in fiber_action(gr, g)]


# ---------------------------------------------------------------------------
# Text syntax: groups like Z3, Z2xZ4, S3; elements like (0,1), 2, (1,2,3), id
# ---------------------------------------------------------------------------

_GROUP_RE = re.compile(r"^(?:Z\d+(?:xZ\d+)*|S\d+)$")


def parse_group(text: str) -> GroupSpec:
    t = re.sub(r"\s+", "", text)
    if not _GROUP_RE.match(t):
        raise BadGroupSpec(f"cannot parse group spec {text!r} (expected e.g. Z3, Z2xZ4, S3)")
    if t.startswith("S"):
        return SymmetricGroup(int(t[1:]))
    return AbelianGroup(tuple(int(p[1:]) for p in t.split("x")))


def format_group(gr: GroupSpec) -> str:
    if isinstance(gr, AbelianGroup):
        return "x".join(f"Z{k}" for k in gr.orders)
    return f"S{gr.degree}"


def parse_element(gr: GroupSpec, text: str):
    """Parse element text: residue tuple or bare residue for abelian groups,
    disjoint cycles or 'id' for symmetric groups. Whitespace-insensitive.
    Every error is BadElementText; a residue vector outside the group gets
    require_member's text."""
    t = re.sub(r"\s+", "", text)
    if isinstance(gr, AbelianGroup):
        if re.fullmatch(r"-?\d+", t):
            if len(gr.orders) != 1:
                raise BadElementText(f"bare residue {text!r} is only valid for a single cyclic factor")
            vals = [int(t)]
        else:
            m = re.fullmatch(r"\((-?\d+(?:,-?\d+)*)\)", t)
            if not m:
                raise BadElementText(f"cannot parse abelian element {text!r}")
            vals = [int(p) for p in m.group(1).split(",")]
        e = tuple(vals)
        try:
            require_member(gr, e)
        except ElementNotInGroup as exc:
            raise BadElementText(str(exc)) from None
        return e
    if t == "id":
        return gr.identity()
    if not re.fullmatch(r"(\(\d+(?:,\d+)+\))+", t):
        raise BadElementText(f"cannot parse permutation {text!r} (expected cycles or 'id')")
    one_line = list(range(1, gr.degree + 1))
    moved: set[int] = set()
    for cyc in re.findall(r"\(([\d,]+)\)", t):
        pts = [int(p) for p in cyc.split(",")]
        if len(set(pts)) != len(pts):
            raise BadElementText(f"cycle ({cyc}) repeats a point")
        for p in pts:
            if not 1 <= p <= gr.degree:
                raise BadElementText(f"point {p} outside 1..{gr.degree} in {text!r}")
            if p in moved:
                raise BadElementText(f"cycles in {text!r} are not disjoint at point {p}")
            moved.add(p)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            one_line[a - 1] = b
    return tuple(one_line)


def format_element(gr: GroupSpec, e) -> str:
    require_member(gr, e)
    if isinstance(gr, AbelianGroup):
        if len(gr.orders) == 1:
            return str(e[0])
        return "(" + ",".join(str(a) for a in e) + ")"
    seen: set[int] = set()
    cycles = []
    for start in range(1, gr.degree + 1):
        if start in seen or e[start - 1] == start:
            continue
        cyc = [start]
        seen.add(start)
        nxt = e[start - 1]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = e[nxt - 1]
        cycles.append(cyc)
    if not cycles:
        return "id"
    return "".join("(" + ",".join(str(p) for p in c) + ")" for c in cycles)


# ---------------------------------------------------------------------------
# Integer polynomials: plain coefficient lists, index = power
# ---------------------------------------------------------------------------


def poly_trim(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def poly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return poly_trim(out)


def poly_text(a: list) -> str:
    """Bracketed integer list, highest degree first: the CLI output form."""
    if not a:
        return "[0]"
    return "[" + ", ".join(str(c) for c in reversed(a)) + "]"


def cyclotomic_value(k: int, r: int) -> int:
    """Phi_k(r), the k-th cyclotomic polynomial at an integer r >= 2.

    As r^m - 1 is the product of Phi_d(r) over the divisors d of m,
    Phi_m(r) = (r^m - 1) / (the product of Phi_d(r) over the divisors d < m
    of m), taken over the divisors m of k in increasing order. Each division
    is exact, and no Phi_d(r) is zero for r >= 2.
    """
    values: dict[int, int] = {}
    for m in range(1, k + 1):
        if k % m == 0:
            values[m] = (r**m - 1) // math.prod(v for d, v in values.items() if m % d == 0)
    return values[k]


# ---------------------------------------------------------------------------
# Characteristic polynomial, division-free
# ---------------------------------------------------------------------------


def berkowitz_charpoly(matrix) -> list:
    """Monic characteristic polynomial det(tI - M) of a square integer matrix.

    Samuelson-Berkowitz recursion: entirely division-free, so every value it
    forms is a sum of products of entries, and the result is exact in
    integer arithmetic. Returns the coefficient list with index = power.

    Working from the trailing principal submatrices: if q is the charpoly
    coefficient vector (highest degree first) of the (m x m) trailing block B
    and the matrix is [[a, R], [C, B]], the next vector is the product of the
    Toeplitz lower-triangular matrix with first column
    [1, -a, -R*C, -R*B*C, ..., -R*B^(m-1)*C] with q.

    The matrix is walked sparsely: non-zero entries are listed per row and
    per column, and the Krylov vector B^s*C, a dict keyed by the rows it
    reaches, is pushed only through the trailing block's columns.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise NonSquare(f"matrix row has length {len(row)}, expected {n}")
    # Non-zero (index, value) pairs of each row and column, largest index
    # first, so a walk down a column of the trailing block below k stops at
    # the first row <= k.
    rows: list[list] = [[] for _ in range(n)]
    cols: list[list] = [[] for _ in range(n)]
    for i in range(n - 1, -1, -1):
        for j in range(n - 1, -1, -1):
            x = matrix[i][j]
            if x:
                rows[i].append((j, x))
                cols[j].append((i, x))
    coeffs = [1]  # highest degree first
    for k in range(n - 1, -1, -1):
        col = [1, -matrix[k][k]]
        v = {i: x for i, x in cols[k] if i > k}
        width = len(coeffs)
        while v:  # once B^s*C is zero, so is every later entry of the column
            acc = 0
            for j, x in rows[k]:
                if j in v:  # v holds only the trailing block's indices
                    acc += x * v[j]
            col.append(-acc)
            if len(col) > width:
                break
            w = {}
            for j, y in v.items():
                for i, x in cols[j]:
                    if i <= k:
                        break
                    w[i] = w.get(i, 0) + x * y
            v = w
        new = [0] * (width + 1)
        for d, c in enumerate(col):
            if c:
                for j in range(min(width, width + 1 - d)):
                    new[d + j] += c * coeffs[j]
        coeffs = new
    coeffs.reverse()
    return coeffs
