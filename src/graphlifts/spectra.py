"""Exact spectra: characteristic polynomials, cospectrality, and the
character decomposition of lifted graphs.

Cospectrality is decided only by exact integer polynomial equality. The
decomposition check multiplies, over all characters chi of an abelian voltage
group, the charpoly of the matrix whose (i, j) entry is chi of the edge
voltage (inverse on the mirrored entry), and compares the product with the
lift's charpoly; the product is computed in the cyclotomic ring and must
reduce to integers coefficient by coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    AbelianGroup,
    CycloElem,
    Character,
    berkowitz_charpoly,
    characters,
    compose,
    cyclo_one,
    cyclo_zero,
    inverse,
)
from .graphs import Graph, adjacency_matrix
from .lifts import NonAbelianSignature, Signature, build_constant_lift, build_lift


class NonIntegerProduct(RuntimeError):
    """The character product failed to reduce to integers: an internal bug,
    never a data condition."""


class PreconditionFailed(ValueError):
    """A lemma verification was called outside its hypotheses."""


def charpoly(g: Graph) -> list[int]:
    """det(tI - A(g)) as an integer coefficient list, index = power."""
    return berkowitz_charpoly(adjacency_matrix(g))


def cospectral(g: Graph, h: Graph) -> bool:
    """True iff the adjacency spectra agree exactly (equal charpolys).

    Graphs on different vertex counts are never cospectral.
    """
    if g.n != h.n:
        return False
    return charpoly(g) == charpoly(h)


def build_Ax(base: Graph, s: Signature, chi: Character) -> list[list[CycloElem]]:
    """The character image of a signature: entry (i, j) = chi(s(i, j)) for a
    base edge with i < j, the ring inverse chi(s(i, j))^-1 mirrored at
    (j, i), and zero elsewhere."""
    if not s.is_abelian():
        raise NonAbelianSignature("character matrices require an abelian signature")
    n = base.n
    zero = cyclo_zero(chi.group.exponent())
    m = [[zero] * n for _ in range(n)]
    for (i, j), g in s.assignments.items():
        m[i - 1][j - 1] = chi.value(g)
        m[j - 1][i - 1] = chi.inverse_value(g)
    return m


@dataclass(frozen=True)
class VerifyReport:
    holds: bool
    lift_poly: list[int]
    product_poly: list[int]


def verify_decomposition(base: Graph, s: Signature) -> VerifyReport:
    """Check that the lift's charpoly equals the product over all characters
    of the charpolys of the character matrices.

    The per-character polynomials are multiplied in character index order and
    every coefficient of the product must reduce to an integer; a non-integer
    coefficient raises NonIntegerProduct.
    """
    if not s.is_abelian():
        raise NonAbelianSignature("decomposition requires an abelian signature")
    lift_poly = charpoly(build_lift(base, s))
    modulus = s.group.exponent()
    zero, one = cyclo_zero(modulus), cyclo_one(modulus)
    product = [one]
    for chi in characters(s.group):
        factor = berkowitz_charpoly(build_Ax(base, s, chi), zero=zero, one=one)
        new = [zero] * (len(product) + len(factor) - 1)
        for a, ca in enumerate(product):
            for b, cb in enumerate(factor):
                new[a + b] = new[a + b] + ca * cb
        product = new
    product_ints = []
    for k, c in enumerate(product):
        v = c.as_integer()
        if v is None:
            raise NonIntegerProduct(f"coefficient of t^{k} reduced to {c.coeffs}, not an integer")
        product_ints.append(v)
    return VerifyReport(lift_poly == product_ints, lift_poly, product_ints)


def verify_constant_lift_lemma(g: Graph, h: Graph, gr: AbelianGroup, elem) -> bool:
    """For cospectral g, h and a voltage with symmetric permutation matrix
    (equivalently elem * elem = identity), the two constant lifts must again
    be cospectral. Returns that comparison; raises PreconditionFailed when
    called outside the hypotheses."""
    if not cospectral(g, h):
        raise PreconditionFailed("base graphs are not cospectral")
    if compose(gr, elem, elem) != gr.identity():
        raise PreconditionFailed(
            "permutation matrix of the voltage is not symmetric (element is not an involution)"
        )
    return cospectral(build_constant_lift(g, gr, elem), build_constant_lift(h, gr, elem))


# ---------------------------------------------------------------------------
# Numeric display of a spectrum (never used for equality decisions)
# ---------------------------------------------------------------------------


def _frac(poly: list[int] | list[Fraction]) -> list[Fraction]:
    return [Fraction(c) for c in poly]


def _ftrim(p: list[Fraction]) -> list[Fraction]:
    while p and not p[-1]:
        p.pop()
    return p


def _fderive(p: list[Fraction]) -> list[Fraction]:
    return [c * k for k, c in enumerate(p)][1:]


def _fdivmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c = a[k + len(b) - 1] / b[-1]
        q[k] = c
        if c:
            for j, cb in enumerate(b):
                a[k + j] -= c * cb
    return _ftrim(q), _ftrim(a[: len(b) - 1])


def _fgcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _ftrim(list(a)), _ftrim(list(b))
    while b:
        a, b = b, _fdivmod(a, b)[1]
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _feval(p: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _squarefree_parts(p: list[Fraction]) -> list[tuple[list[Fraction], int]]:
    """Yun decomposition p = prod f_i^i into monic squarefree parts."""
    out = []
    g = _fgcd(p, _fderive(p))
    if len(g) == 1:
        return [(p, 1)]
    c = _fdivmod(p, g)[0]
    w = _fdivmod(_fderive(p), g)[0]
    y = _ftrim([a - b for a, b in zip_pad(w, _fderive(c))])
    i = 1
    while len(c) > 1:
        f = _fgcd(c, y)
        if len(f) > 1:
            out.append((f, i))
        c = _fdivmod(c, f)[0]
        w = _fdivmod(y, f)[0]
        y = _ftrim([a - b for a, b in zip_pad(w, _fderive(c))])
        i += 1
    return out


def zip_pad(a: list[Fraction], b: list[Fraction]):
    n = max(len(a), len(b))
    za = a + [Fraction(0)] * (n - len(a))
    zb = b + [Fraction(0)] * (n - len(b))
    return zip(za, zb)


def _sturm_chain(p: list[Fraction]) -> list[list[Fraction]]:
    chain = [list(p), _fderive(p)]
    while len(chain[-1]) > 1:
        rem = _fdivmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-c for c in rem])
    return [c for c in chain if c]


def _variations(chain: list[list[Fraction]], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = _feval(p, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def numeric_spectrum(p: list[int], tol: float = 1e-9) -> list[float]:
    """All real roots of a graph charpoly, sorted ascending with
    multiplicity, approximated to within tol.

    Sturm-sequence isolation plus bisection over exact rationals; this is a
    display helper only and is never consulted for cospectrality.
    """
    fp = _ftrim(_frac(p))
    if len(fp) <= 1:
        return []
    lead = fp[-1]
    fp = [c / lead for c in fp]
    tol_f = Fraction(tol) if tol > 0 else Fraction(1, 10**9)
    roots: list[tuple[Fraction, int]] = []
    for factor, mult in _squarefree_parts(fp):
        if len(factor) == 2:
            roots.append((-factor[0] / factor[1], mult))
            continue
        chain = _sturm_chain(factor)
        bound = Fraction(1) + max(abs(c) for c in factor[:-1])
        # Intervals are half-open (a, b]; the root count in (a, b] is
        # v(a) - v(b), so a root landing exactly on a split point is counted
        # once, by the left piece.
        stack = [(-bound, bound, _variations(chain, -bound), _variations(chain, bound))]
        while stack:
            a, b, va, vb = stack.pop()
            count = va - vb
            if count == 0:
                continue
            if count == 1:
                while b - a > tol_f:
                    mid = (a + b) / 2
                    if not _feval(factor, mid):
                        a = b = mid
                        break
                    vm = _variations(chain, mid)
                    if va - vm == 1:
                        b, vb = mid, vm
                    else:
                        a, va = mid, vm
                roots.append(((a + b) / 2, mult))
                continue
            mid = (a + b) / 2
            vm = _variations(chain, mid)
            stack.append((a, mid, va, vm))
            stack.append((mid, b, vm, vb))
    out: list[float] = []
    for x, mult in sorted(roots):
        out.extend([float(x)] * mult)
    return out
