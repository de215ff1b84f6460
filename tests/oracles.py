"""Brute-force oracles shared by the tests, and the loader of
scripts/condition_sweep.py. Each oracle computes what the library computes,
the slow and obvious way. The cyclotomic ring Z[x]/(Phi_K) and the abelian
characters valued in it build Phi_K here, by polynomial long division, and
take from the library only the group type, its membership check and the
error base class; no oracle shares other code with the library."""

import importlib.util
import itertools
import os
from dataclasses import dataclass
from functools import lru_cache

from graphlifts.algebra import AbelianGroup, AlgebraError, require_member

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def brute_force_isomorphic(g, h) -> bool:
    """Whether some permutation of the vertices maps g's edges onto h's."""
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False
    h_edges = set(h.edges)
    return any(
        all((min(p[i - 1], p[j - 1]), max(p[i - 1], p[j - 1])) in h_edges for i, j in g.edges)
        for p in itertools.permutations(range(1, g.n + 1))
    )


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def closed_walk_crossings(base, cotree, max_length):
    """Every closed walk of length 1..max_length in base, from every start,
    as (length, c): c[p] is the number of times the walk crosses edge
    cotree[p] from its lower end to its higher, less the number of times it
    crosses it the other way."""
    adj = {v: [] for v in range(1, base.n + 1)}
    for i, j in base.edges:
        adj[i].append(j)
        adj[j].append(i)
    found = []

    def extend(walk):
        if len(walk) > 1 and walk[-1] == walk[0]:
            c = [0] * len(cotree)
            for a, b in zip(walk, walk[1:]):
                if (min(a, b), max(a, b)) in cotree:
                    c[cotree.index((min(a, b), max(a, b)))] += 1 if a < b else -1
            found.append((len(walk) - 1, tuple(c)))
        if len(walk) <= max_length:
            for v in adj[walk[-1]]:
                extend(walk + [v])

    for start in adj:
        extend([start])
    return found


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_det(rows):
    """The determinant of a matrix of ascending coefficient lists, by
    cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    total = [0]
    for col, entry in enumerate(rows[0]):
        minor = [r[:col] + r[col + 1 :] for r in rows[1:]]
        term = _poly_mul(entry, _poly_det(minor))
        sign = -1 if col % 2 else 1
        total = [a + sign * b for a, b in itertools.zip_longest(total, term, fillvalue=0)]
    return total


def cofactor_charpoly(m):
    """det(tI - M) of a non-empty square integer matrix, as ascending
    coefficients."""
    n = len(m)
    poly = _poly_det([[[-m[i][j], 1] if i == j else [-m[i][j]] for j in range(n)] for i in range(n)])
    return poly + [0] * (n + 1 - len(poly))


def _poly_trim(cs):
    while cs and not cs[-1]:
        cs.pop()
    return cs


def poly_divexact(a, b):
    """Exact quotient a / b over the integers; raises if it does not divide."""
    b = _poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    out = [0] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    for k in range(len(out) - 1, -1, -1):
        num = a[k + len(b) - 1]
        if num % lead:
            raise AlgebraError("polynomial division is not exact")
        q = out[k] = num // lead
        if q:
            for j, cb in enumerate(b):
                a[k + j] -= q * cb
    if any(a[: len(b) - 1]):
        raise AlgebraError("polynomial division leaves a remainder")
    return _poly_trim(out)


@lru_cache(maxsize=None)
def cyclotomic_poly(k: int) -> tuple[int, ...]:
    """The k-th cyclotomic polynomial, monic of degree phi(k): x^k - 1
    divided exactly by the product of Phi_d over the proper divisors d of k."""
    if k < 1:
        raise AlgebraError(f"cyclotomic index must be positive, got {k}")
    if k == 1:
        return (-1, 1)
    xk1 = [0] * (k + 1)
    xk1[0], xk1[k] = -1, 1
    divisor = [1]
    for d in range(1, k):
        if k % d == 0:
            divisor = _poly_mul(divisor, list(cyclotomic_poly(d)))
    return tuple(poly_divexact(xk1, divisor))


class ModulusMismatch(AlgebraError):
    """Cyclotomic operands have different moduli."""


def _cyclo_reduce(modulus: int, coeffs) -> tuple[int, ...]:
    """The remainder of coeffs by Phi_K, padded to length phi(K)."""
    phi = cyclotomic_poly(modulus)
    rem = list(coeffs)
    # Phi_K is monic: cancel the top coefficient until the degree is below phi(K)
    for k in range(len(rem) - len(phi), -1, -1):
        q = rem[k + len(phi) - 1]
        for j, c in enumerate(phi):
            rem[k + j] -= q * c
    rem = rem[: len(phi) - 1]
    return tuple(rem + [0] * (len(phi) - 1 - len(rem)))


@dataclass(frozen=True)
class CycloElem:
    """Element of Z[x]/(Phi_K): an integer vector of length phi(K).

    The class of x is a primitive K-th root of unity; equality of reduced
    coefficient vectors is equality in the ring, so no floating point is ever
    needed to compare character values.
    """

    modulus: int
    coeffs: tuple[int, ...]

    def _check(self, other: "CycloElem") -> None:
        if self.modulus != other.modulus:
            raise ModulusMismatch(f"moduli differ: {self.modulus} vs {other.modulus}")

    def __add__(self, other):
        other = _coerce(self.modulus, other)
        self._check(other)
        return CycloElem(self.modulus, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycloElem(self.modulus, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + -_coerce(self.modulus, other)

    def __rsub__(self, other):
        return _coerce(self.modulus, other) - self

    def __mul__(self, other):
        other = _coerce(self.modulus, other)
        self._check(other)
        return CycloElem(self.modulus, _cyclo_reduce(self.modulus, _poly_mul(self.coeffs, other.coeffs)))

    __rmul__ = __mul__

    def equals_integer(self, m: int) -> bool:
        return self.coeffs[0] == m and not any(self.coeffs[1:])

    def as_integer(self) -> int | None:
        """The integer this element reduces to, or None if it is not one."""
        return self.coeffs[0] if not any(self.coeffs[1:]) else None


def _coerce(modulus: int, v) -> CycloElem:
    if isinstance(v, CycloElem):
        return v
    if isinstance(v, int):
        return cyclo_int(modulus, v)
    raise TypeError(f"cannot use {v!r} in cyclotomic arithmetic")


def cyclo_int(modulus: int, m: int) -> CycloElem:
    return CycloElem(modulus, _cyclo_reduce(modulus, [m]))


def root_power(modulus: int, t: int) -> CycloElem:
    """omega^t where omega is the class of x, a primitive K-th root of unity."""
    t %= modulus
    return CycloElem(modulus, _cyclo_reduce(modulus, [0] * t + [1]))


@dataclass(frozen=True)
class Character:
    """Character of an abelian group, indexed by a residue vector.

    For Gr = Z_{k1} x ... x Z_{kr} and K = lcm(k_i), the character with
    index (j_1,...,j_r) maps (a_1,...,a_r) to omega_K raised to
    sum_i j_i * a_i * (K / k_i).
    """

    group: AbelianGroup
    index: tuple[int, ...]

    def root_exponent(self, e) -> int:
        require_member(self.group, e)
        k_lcm = self.group.exponent()
        total = 0
        for j, a, k in zip(self.index, e, self.group.orders):
            total += j * a * (k_lcm // k)
        return total % k_lcm

    def value(self, e) -> CycloElem:
        return root_power(self.group.exponent(), self.root_exponent(e))

    def inverse_value(self, e) -> CycloElem:
        """The ring inverse of value(e)."""
        return root_power(self.group.exponent(), -self.root_exponent(e))


def characters(gr: AbelianGroup) -> list[Character]:
    """All |Gr| characters in lexicographic index order (trivial first)."""
    if not isinstance(gr, AbelianGroup):
        raise AlgebraError("characters are defined for abelian groups only")
    return [Character(gr, idx) for idx in gr.elements()]


def load_condition_sweep():
    """scripts/condition_sweep.py as a module."""
    spec = importlib.util.spec_from_file_location(
        "condition_sweep", os.path.join(ROOT, "scripts", "condition_sweep.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
