"""Exact spectra: characteristic polynomials, cospectrality, and the
character decomposition of lifted graphs.

Cospectrality is decided only by exact integer polynomial equality. An
abelian lift's charpoly comes from closed walks (lift_charpoly), any other
graph's from the Berkowitz recursion, and the character product from
Berkowitz mod M (verify_decomposition).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

from .algebra import (
    AbelianGroup,
    berkowitz_charpoly,
    compose,
    cyclotomic_value,
    inverse,
    poly_mul,
)
from .graphs import Graph, adjacency_matrix, degree_sequence, neighbor_lists
from .lifts import NonAbelianSignature, Signature, build_lift, constant_signature


class PreconditionFailed(ValueError):
    """A lemma verification was called outside its hypotheses."""


def charpoly(g: Graph) -> list[int]:
    """det(tI - A(g)) as an integer coefficient list, index = power."""
    return berkowitz_charpoly(adjacency_matrix(g))


def lift_charpoly(base: Graph, s: Signature) -> list[int]:
    """det(tI - A(L)) as an integer coefficient list, index = power, for the
    lift L = build_lift(base, s) of an abelian signature s over Gr, with its
    N = n*|Gr| vertices numbered fibre by fibre.

    build_lift joins (i, a) to (j, a*g) for each base edge (i, j) of voltage
    g, so translating every fibre by h, (i, a) -> (i, a*h), takes that edge
    to (i, a*h)-(j, a*g*h), which is again an edge of L as Gr is abelian:
    every fibre translation is an automorphism of L, and the translations
    act transitively on each fibre. So every vertex of fibre i closes as
    many walks of each length k as its first vertex s_i, and the power sum
    p_k = tr(A^k) is |Gr| times the sum over i of (A^k)[s_i][s_i]. The n
    starts are walked together, N steps over the union of their components:
    each vertex v holds one integer whose field i, width = N*bit_length(D) + 1
    bits wide for the maximum degree D, is the number of walks of length k
    from s_i to v. For 1 <= k <= N that count is at most D^k <= D^N <
    2^(N*bit_length(D)), and for k = 0 it is 1, so no field carries into the
    next, and p_k is |Gr| times the sum of field i at s_i. Newton's
    identities k*c_k = -sum_{j=1..k} p_j*c_(k-j) turn p_1..p_N into the
    coefficient c_k of t^(N-k), each division exact.
    """
    if not s.is_abelian():
        raise NonAbelianSignature("lift_charpoly requires an abelian group")
    lift = build_lift(base, s)
    d, size = s.group.order(), lift.n
    adj = neighbor_lists(lift)
    # a walk from a start stays in its component; number the union of the
    # starts' components from 0, the starts first
    comp = list(range(0, size, d))
    local = {s: i for i, s in enumerate(comp)}
    for u in comp:
        for v in adj[u]:
            if v not in local:
                local[v] = len(comp)
                comp.append(v)
    rows = [[local[v] for v in adj[u]] for u in comp]
    width = size * max(map(len, adj), default=0).bit_length() + 1
    mask = (1 << width) - 1
    shifts = range(0, width * (size // d), width)
    walk = [1 << shift for shift in shifts] + [0] * (len(comp) - len(shifts))
    walks_at_first = [0]
    for _ in range(size):
        at = walk.__getitem__
        walk = [sum(map(at, nbrs)) for nbrs in rows]
        walks_at_first.append(sum((w >> shift) & mask for w, shift in zip(walk, shifts)))
    coeffs = [1]
    for k in range(1, size + 1):
        c, rem = divmod(-d * sum(map(mul, walks_at_first[1 : k + 1], reversed(coeffs))), k)
        if rem:
            raise ArithmeticError(f"Newton's identity for c_{k} does not divide exactly")
        coeffs.append(c)
    coeffs.reverse()
    return coeffs


def cospectral(g: Graph, h: Graph) -> bool:
    """True iff the adjacency spectra agree exactly (equal charpolys).

    Graphs on different vertex counts are never cospectral.
    """
    if g.n != h.n:
        return False
    return charpoly(g) == charpoly(h)


def character_modulus(exponent: int, bound: int) -> tuple[int, int]:
    """The least b >= 1 with M = Phi_K(2^b) > 2*bound for K = exponent, and
    that M. Phi_K(x), the product of |x - zeta| over the primitive K-th roots
    of unity, increases for real x >= 1, so the search may start anywhere: at
    b = ceil(bit_length(2*bound) / phi(K)), from the leading term
    2^(b*phi(K)), it steps down while b - 1 qualifies, then up until b does.
    """
    phi = sum(math.gcd(j, exponent) == 1 for j in range(1, exponent + 1))
    b = -(-(2 * bound).bit_length() // phi)
    while b > 1 and cyclotomic_value(exponent, 1 << (b - 1)) > 2 * bound:
        b -= 1
    while (modulus := cyclotomic_value(exponent, 1 << b)) <= 2 * bound:
        b += 1
    return b, modulus


@dataclass(frozen=True)
class VerifyReport:
    holds: bool
    lift_poly: list[int]
    product_poly: list[int]


def verify_decomposition(base: Graph, s: Signature) -> VerifyReport:
    """Check that the lift's charpoly equals the product over all characters
    of the charpolys of the character matrices. The lift side is
    lift_charpoly on the lift as built, from closed walks; the character
    side is Berkowitz mod M, as follows.

    The characters of Gr = Z_{k1} x ... x Z_{kr} are indexed by its
    elements: with K = lcm(k_i) the group exponent and zeta_K a primitive
    K-th root of unity, chi_j(a) = zeta_K^(sum_i j_i*a_i*K/k_i).

    Let N = n*|Gr| be the lift's order and D the base's maximum degree.
    Each character matrix is Hermitian with at most D unit-modulus entries
    per row, so every root of the product has |t| <= D and its t^k
    coefficient is at most C(N, k)*D^(N-k) <= (D+1)^N in absolute value.
    The Galois group of Q(zeta_K) permutes the characters, so the
    product lies in Z[t]. With r = 2^b and M = Phi_K(r) > 2*(D+1)^N (least
    such b), zeta_K -> r is a ring homomorphism Z[zeta_K] = Z[x]/(Phi_K) ->
    Z/MZ; x^K - 1 would not do, since Z[x]/(x^K - 1) is not Z[zeta_K]. M
    is an exact integer quotient, as r^m - 1 = prod_{d | m} Phi_d(r). So
    the product is the symmetric residues mod M of the product of the integer
    charpolys of the images of the character matrices, each entry chi(g)
    mapped to r^e mod M and its mirrored inverse to r^(K-e) mod M.

    The conjugate of chi_j is chi_(j^-1), with A_conj(chi) = A_chi^T, and
    its image is the transpose of A_chi's, since r^e and r^(K-e) swap
    places; a matrix and its transpose have one charpoly. So the factor is
    computed once per pair of conjugate characters, at the one of lower
    index, and taken twice unless chi is its own conjugate.
    """
    if not s.is_abelian():
        raise NonAbelianSignature("decomposition requires an abelian signature")
    lift_poly = lift_charpoly(base, s)
    exponent = s.group.exponent()
    bound = (max(degree_sequence(base), default=0) + 1) ** (base.n * s.group.order())
    b, modulus = character_modulus(exponent, bound)
    powers = [pow(1 << b, e, modulus) for e in range(exponent)]
    # each voltage a scaled once, each a_i to a_i*K/k_i, so that
    # chi_j(a) = zeta_K^e for e = j . scaled[edge] mod K, j being `index`
    scaled = {
        edge: [a * (exponent // k) for a, k in zip(g, s.group.orders)] for edge, g in s.assignments.items()
    }
    product = [1]
    for pos, index in enumerate(s.group.elements()):
        conjugate = s.group.index(inverse(s.group, index))
        if conjugate < pos:
            continue
        m = [[0] * base.n for _ in range(base.n)]
        for (i, j), voltage in scaled.items():
            e = sum(map(mul, index, voltage)) % exponent
            m[i - 1][j - 1] = powers[e]
            m[j - 1][i - 1] = powers[-e % exponent]
        factor = [c % modulus for c in berkowitz_charpoly(m)]
        for _ in range(1 if conjugate == pos else 2):
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
    lift_g, lift_h = (lift_charpoly(base, constant_signature(base, gr, elem)) for base in (g, h))
    return lift_g == lift_h

