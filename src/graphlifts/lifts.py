"""Voltage signatures and explicit construction of lifted graphs.

The lift places a fiber of d vertices over each base vertex and replaces
each base edge (i, j), i < j, with the perfect matching selected by its
voltage: (i, a) is joined to (j, b) exactly when the voltage maps fiber
position a to fiber position b, in the action algebra.fiber_action defines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (
    AbelianGroup,
    BadElementText,
    BadGroupSpec,
    GroupSpec,
    fiber_action,
    format_element,
    format_group,
    parse_element,
    parse_group,
    require_member,
)
from .graphs import Graph, data_lines, from_edge_list


class SignatureError(ValueError):
    """Base class for signature parsing and validation errors."""


class MissingEdge(SignatureError):
    """A base edge has no assignment."""


class UnknownEdge(SignatureError):
    """An assignment names a pair that is not a base edge."""


class DuplicateEdge(SignatureError):
    """An edge is assigned more than once."""


class BadElement(SignatureError):
    """An assignment's element text cannot be parsed or is out of the group."""


class BadGroupHeader(SignatureError):
    """The signature file's group header is missing or unparseable."""


class InvalidSignature(SignatureError):
    """A signature does not match the base graph it is used with."""


class NonAbelianSignature(SignatureError):
    """An abelian-only operation was given a symmetric-group signature."""


@dataclass(frozen=True)
class Signature:
    """A total map from the base graph's canonical edges to group elements.
    The hash leaves the assignments out: equal signatures share their base
    and group, so their hashes agree."""

    base: Graph
    group: GroupSpec
    assignments: dict = field(hash=False)

    def get(self, i: int, j: int):
        if i > j:
            i, j = j, i
        return self.assignments[(i, j)]

    def items(self):
        return sorted(self.assignments.items())

    def is_abelian(self) -> bool:
        return isinstance(self.group, AbelianGroup)


def make_signature(base: Graph, group: GroupSpec, assignments: dict) -> Signature:
    """Validate and freeze a signature: every base edge exactly once, every
    element in the group. constant_signature and parse_signature end here,
    so a missing edge has one error text, and an element outside the group
    has require_member's. parse_signature reports an unknown or repeated
    edge itself, naming the line, and puts the line before an element's."""
    edge_set = set(base.edges)
    for pair, elem in assignments.items():
        if tuple(pair) not in edge_set:
            raise UnknownEdge(f"pair {pair} is not an edge of the base graph")
        require_member(group, elem)
    for edge in base.edges:
        if edge not in assignments:
            raise MissingEdge(f"edge {edge} has no assignment")
    return Signature(base, group, dict(assignments))


def constant_signature(base: Graph, group: GroupSpec, g) -> Signature:
    require_member(group, g)  # checked even when the base has no edges
    return make_signature(base, group, dict.fromkeys(base.edges, g))


def parse_signature(text: str, base: Graph) -> Signature:
    """Parse signature text against a base graph.

    Format: first non-comment line is 'group <spec>' (e.g. 'group Z2',
    'group S3'); each following line is 'i j : <element>' with i < j,
    1-based; '#' starts a comment. Errors name the offending line.
    """
    group: GroupSpec | None = None
    assignments: dict = {}
    edge_set = set(base.edges)
    for lineno, line, raw in data_lines(text):
        if group is None:
            parts = line.split(None, 1)
            if len(parts) != 2 or parts[0] != "group":
                raise BadGroupHeader(f"line {lineno}: expected 'group <spec>', got {raw.strip()!r}")
            try:
                group = parse_group(parts[1])
            except BadGroupSpec as exc:
                raise BadGroupHeader(f"line {lineno}: {exc}") from None
            continue
        if ":" not in line:
            raise SignatureError(f"line {lineno}: expected 'i j : <element>', got {raw.strip()!r}")
        left, right = line.split(":", 1)
        parts = left.split()
        try:
            i, j = (int(p) for p in parts)
        except ValueError:
            raise SignatureError(f"line {lineno}: expected two endpoints before ':'") from None
        if i >= j:
            raise SignatureError(f"line {lineno}: edge must be written with i < j, got {i} {j}")
        if (i, j) not in edge_set:
            raise UnknownEdge(f"line {lineno}: ({i},{j}) is not an edge of the base graph")
        if (i, j) in assignments:
            raise DuplicateEdge(f"line {lineno}: edge ({i},{j}) assigned twice")
        try:
            elem = parse_element(group, right.strip())
        except BadElementText as exc:
            raise BadElement(f"line {lineno}: {exc}") from None
        assignments[(i, j)] = elem
    if group is None:
        raise BadGroupHeader("no 'group <spec>' header line found")
    return make_signature(base, group, assignments)


def emit_signature(s: Signature) -> str:
    lines = [f"group {format_group(s.group)}"]
    for (i, j), elem in s.items():
        lines.append(f"{i} {j} : {format_element(s.group, elem)}")
    return "\n".join(lines) + "\n"


def build_lift(base: Graph, s: Signature) -> Graph:
    """Construct the lifted graph selected by signature s: lift vertex
    (i, a), at 0-based fiber position a, gets index (i - 1) * d + a + 1."""
    if s.base != base:
        raise InvalidSignature("signature was built for a different base graph")
    if set(s.assignments) != set(base.edges):
        raise InvalidSignature("signature does not cover exactly the base edge set")
    d = s.group.fiber_size()
    pairs = []
    for (i, j), g in s.items():
        for a, b in enumerate(fiber_action(s.group, g)):
            pairs.append(((i - 1) * d + a + 1, (j - 1) * d + b + 1))
    return from_edge_list(base.n * d, pairs)
