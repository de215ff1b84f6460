"""Brute-force oracles shared by the tests, and the loader of
scripts/condition_sweep.py. Each oracle computes what the library computes,
the slow and obvious way, and shares no code with the library."""

import importlib.util
import itertools
import os

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


def load_condition_sweep():
    """scripts/condition_sweep.py as a module."""
    spec = importlib.util.spec_from_file_location(
        "condition_sweep", os.path.join(ROOT, "scripts", "condition_sweep.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
