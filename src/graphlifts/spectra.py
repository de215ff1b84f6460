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

from .algebra import (
    AbelianGroup,
    CycloElem,
    Character,
    berkowitz_charpoly,
    characters,
    compose,
    cyclo_one,
    cyclo_zero,
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

