"""Exact spectra: characteristic polynomials, cospectrality, and the
character decomposition of lifted graphs.

Cospectrality is decided only by exact integer polynomial equality. The
decomposition check multiplies, over all characters chi of an abelian voltage
group, the charpoly of the matrix whose (i, j) entry is chi of the edge
voltage (inverse on the mirrored entry), and compares the product with the
lift's charpoly. That product has integer coefficients of bounded size, so it
is computed exactly as the image of the character values under a ring
homomorphism Z[zeta_K] -> Z/MZ, with integer charpolys throughout (see
verify_decomposition).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    AbelianGroup,
    berkowitz_charpoly,
    characters,
    compose,
    cyclotomic_poly,
    poly_mul,
)
from .graphs import Graph, adjacency_matrix, degree_sequence
from .lifts import NonAbelianSignature, Signature, build_constant_lift, build_lift


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


@dataclass(frozen=True)
class VerifyReport:
    holds: bool
    lift_poly: list[int]
    product_poly: list[int]


def verify_decomposition(base: Graph, s: Signature) -> VerifyReport:
    """Check that the lift's charpoly equals the product over all characters
    of the charpolys of the character matrices.

    Let K be the group exponent, N = n*|Gr| the lift's order and D the base's
    maximum degree. Each character matrix is Hermitian with at most D
    unit-modulus entries per row, so every root of the product has |t| <= D
    and its t^k coefficient is at most C(N, k)*D^(N-k) <= (D+1)^N in absolute
    value. The Galois group of Q(zeta_K) permutes the characters, so the
    product lies in Z[t]. With r = 2^b and M = Phi_K(r) > 2*(D+1)^N (least
    such b), zeta_K -> r is a ring homomorphism Z[zeta_K] = Z[x]/(Phi_K) ->
    Z/MZ; x^K - 1 would not do, since Z[x]/(x^K - 1) is not Z[zeta_K]. So
    the product is the symmetric residues mod M of the product of the integer
    charpolys of the images of the character matrices, each entry chi(g)
    mapped to r^e mod M and its mirrored inverse to r^(K-e) mod M.
    """
    if not s.is_abelian():
        raise NonAbelianSignature("decomposition requires an abelian signature")
    lift_poly = charpoly(build_lift(base, s))
    exponent = s.group.exponent()
    bound = 2 * (max(degree_sequence(base), default=0) + 1) ** (base.n * s.group.order())
    phi = cyclotomic_poly(exponent)
    b = 1
    while (modulus := sum(c << (b * i) for i, c in enumerate(phi))) <= bound:
        b += 1
    r = 1 << b
    product = [1]
    for chi in characters(s.group):
        m = [[0] * base.n for _ in range(base.n)]
        for (i, j), g in s.assignments.items():
            e = chi.root_exponent(g)
            m[i - 1][j - 1] = pow(r, e, modulus)
            m[j - 1][i - 1] = pow(r, -e % exponent, modulus)
        factor = [c % modulus for c in berkowitz_charpoly(m)]
        product = [c % modulus for c in poly_mul(product, factor)]
    product_ints = [c - modulus if 2 * c > modulus else c for c in product]
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

