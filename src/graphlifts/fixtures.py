"""Bundled worked example: the built-in cospectral 6-vertex base pair, the
S3 signatures of the worked 18-vertex construction, and the two 18x18
adjacency matrices transcribed verbatim from the original write-up of that
example.

The matrices are embedded as printed rather than regenerated, so any
transcription quirks in the source material are detectable and reported
instead of silently papered over.
"""

from __future__ import annotations

from .algebra import SymmetricGroup, parse_element
from .graphs import Graph, from_edge_list
from .lifts import Signature, make_signature

BASE_G: Graph = from_edge_list(6, [(1, 2), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5), (5, 6)])
BASE_H: Graph = from_edge_list(6, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (3, 6), (5, 6)])

S3 = SymmetricGroup(3)


def _s3_signature(base: Graph, cycles: dict[tuple[int, int], str]) -> Signature:
    return make_signature(
        base, S3, {edge: parse_element(S3, text) for edge, text in cycles.items()}
    )


EXAMPLE_SIGNATURE_G: Signature = _s3_signature(
    BASE_G,
    {
        (1, 2): "(1,2,3)",
        (2, 3): "(1,3,2)",
        (2, 4): "id",
        (3, 4): "(1,3,2)",
        (3, 5): "(1,3,2)",
        (4, 5): "(1,2,3)",
        (5, 6): "(1,2)",
    },
)

EXAMPLE_SIGNATURE_H: Signature = _s3_signature(
    BASE_H,
    {
        (1, 2): "(1,3,2)",
        (1, 3): "id",
        (2, 3): "(1,3,2)",
        (3, 4): "id",
        (3, 5): "(1,3,2)",
        (3, 6): "id",
        (5, 6): "(1,3,2)",
    },
)

# Warm-up case: the 4-cycle 1-3-2-4-1 with a single nontrivial voltage;
# its 2-lift is an 8-cycle.
SQUARE: Graph = from_edge_list(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
SQUARE_VOLTAGES: dict[tuple[int, int], int] = {(1, 3): 0, (1, 4): 0, (2, 3): 1, (2, 4): 0}

LIFT_MATRIX_G: tuple[tuple[int, ...], ...] = (
    (0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0),
)

LIFT_MATRIX_H: tuple[tuple[int, ...], ...] = (
    (0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1),
    (0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0),
    (1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0),
)
