"""Voltage lifts of graphs with exact spectral verification.

The package builds lifts selected by group-valued edge signatures, computes
characteristic polynomials over the integers, checks the character-product
decomposition for abelian signatures, and searches signature spaces for
cospectral non-isomorphic lift pairs.
"""

from .algebra import (
    AbelianGroup,
    SymmetricGroup,
    berkowitz_charpoly,
    compose,
    inverse,
    parse_element,
    parse_group,
)
from .graphs import Graph, from_edge_list, parse_edge_list, parse_graph6
from .isomorphism import are_isomorphic
from .lifts import Signature, build_lift, make_signature, parse_signature
from .search import SearchOptions, corollary_generate, iter_search, search
from .spectra import charpoly, cospectral, lift_charpoly, verify_decomposition

__all__ = [
    "AbelianGroup",
    "SymmetricGroup",
    "Graph",
    "Signature",
    "SearchOptions",
    "are_isomorphic",
    "berkowitz_charpoly",
    "build_lift",
    "charpoly",
    "compose",
    "corollary_generate",
    "cospectral",
    "from_edge_list",
    "inverse",
    "iter_search",
    "lift_charpoly",
    "make_signature",
    "parse_edge_list",
    "parse_element",
    "parse_graph6",
    "parse_group",
    "parse_signature",
    "search",
    "verify_decomposition",
]

__version__ = "0.1.0"
