"""Simple undirected graphs: construction, graph6 codec, edge-list text I/O.

Vertices are labeled 1..n in every external format.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import isqrt


class GraphError(ValueError):
    """Base class for graph construction and parsing errors."""


class OutOfRange(GraphError):
    """An edge endpoint lies outside 1..n."""


class LoopEdge(GraphError):
    """An edge joins a vertex to itself."""


class MalformedGraph6(GraphError):
    """Invalid graph6 text. Carries the byte offset of the violation."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class MalformedEdgeList(GraphError):
    """Invalid edge-list text. The message names the offending line."""


@dataclass(frozen=True)
class Graph:
    """Simple graph on vertices 1..n, edges as sorted pairs (i, j) with i < j."""

    n: int
    edges: tuple[tuple[int, int], ...]


def from_edge_list(n: int, pairs) -> Graph:
    """Build a Graph from vertex count and edge pairs.

    Pairs may appear in either orientation and may repeat; the result is
    deduplicated and canonically ordered. Raises OutOfRange or LoopEdge on
    invalid endpoints.
    """
    if n < 0:
        raise OutOfRange(f"vertex count must be nonnegative, got {n}")
    seen: set[tuple[int, int]] = set()
    for i, j in pairs:
        if i == j:
            raise LoopEdge(f"loop edge ({i},{j}) is not allowed")
        for v in (i, j):
            if not 1 <= v <= n:
                raise OutOfRange(f"edge ({i},{j}) endpoint {v} outside 1..{n}")
        seen.add((i, j) if i < j else (j, i))
    return Graph(n, tuple(sorted(seen)))


def adjacency_matrix(g: Graph) -> list[list[int]]:
    """Symmetric 0/1 adjacency matrix with zero diagonal, 0-indexed rows."""
    m = [[0] * g.n for _ in range(g.n)]
    for i, j in g.edges:
        m[i - 1][j - 1] = 1
        m[j - 1][i - 1] = 1
    return m


def adjacency_matrix_problems(m) -> list[str]:
    """Violations of the adjacency-matrix rules: square, 0/1 entries,
    symmetric, zero diagonal. A matrix that is not square gets that one
    problem only."""
    n = len(m)
    if any(len(row) != n for row in m):
        return [f"not square: {n} rows of lengths {sorted({len(row) for row in m})}"]
    problems = []
    for i in range(n):
        for j in range(n):
            if m[i][j] not in (0, 1):
                problems.append(f"entry ({i + 1},{j + 1}) is {m[i][j]}")
            if m[i][j] != m[j][i]:
                problems.append(f"asymmetric at ({i + 1},{j + 1})")
        if m[i][i]:
            problems.append(f"nonzero diagonal at {i + 1}")
    return problems


def from_adjacency_matrix(rows) -> Graph:
    """Build a Graph from a square symmetric 0/1 matrix with zero diagonal."""
    problems = adjacency_matrix_problems(rows)
    if problems:
        raise GraphError("invalid adjacency matrix: " + "; ".join(problems))
    n = len(rows)
    return from_edge_list(n, [(i + 1, j + 1) for i in range(n) for j in range(i + 1, n) if rows[i][j]])


def neighbor_lists(g: Graph) -> list[list[int]]:
    """0-indexed adjacency lists; each list is sorted."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for i, j in g.edges:
        adj[i - 1].append(j - 1)
        adj[j - 1].append(i - 1)
    for row in adj:
        row.sort()
    return adj


def reached(adj: list[list[int]], starts) -> list[int]:
    """The vertices reachable from `starts` over 0-based neighbour lists, in
    breadth-first order: the starts first, then each vertex's unseen
    neighbours in list order, so each follows the earliest reached of them."""
    order = list(starts)
    seen = set(order)
    for u in order:
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                order.append(v)
    return order


def degree_sequence(g: Graph) -> list[int]:
    """Vertex degrees sorted in descending order. Sums to 2 * |edges|."""
    deg = [0] * g.n
    for i, j in g.edges:
        deg[i - 1] += 1
        deg[j - 1] += 1
    return sorted(deg, reverse=True)


_G6_HEADER = ">>graph6<<"
_G6_OUTSIDE = re.compile("[^?-~]")  # any character but 63..126
_G6_BITS = str.maketrans({chr(63 + x): format(x, "06b") for x in range(64)})
_G6_SEXTETS = bytes(range(63, 127)) + bytes(192)  # sextet x -> byte 63 + x


def emit_graph6(g: Graph) -> str:
    """Canonical graph6 encoding of g: the size header, then the column-major
    upper triangle's bits, edge (i, j) at bit (j - 1)(j - 2)/2 + i - 1 as
    parse_graph6 reads it, zero-padded to whole bytes of six bits. The bits
    are packed six to a byte, most significant first, and shifted into
    63..126 at once."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + chr(((n >> 12) & 63) + 63) + chr(((n >> 6) & 63) + 63) + chr((n & 63) + 63)
    else:
        raise GraphError(f"graph6 encoding supports at most 258047 vertices, got {n}")
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    for i, j in g.edges:
        k = (j - 1) * (j - 2) // 2 + i - 1
        body[k // 6] |= 32 >> k % 6
    return head + body.translate(_G6_SEXTETS).decode("ascii")


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string, with or without the '>>graph6<<' marker;
    raises MalformedGraph6 with a byte offset. The body is spelled out as
    one string of its bits, six per byte, and only its set bits are visited:
    bit k of the column-major upper triangle lies in column j, the largest
    with j(j - 1)/2 <= k, and row k - j(j - 1)/2 (both 0-based).
    """
    base = 0
    if text.startswith(_G6_HEADER):
        base = len(_G6_HEADER)
        text = text[base:]
    if not text:
        raise MalformedGraph6("empty graph6 string", base)
    bad = _G6_OUTSIDE.search(text)
    if bad:
        raise MalformedGraph6(f"byte {ord(bad.group())!r} outside graph6 range 63..126", base + bad.start())
    if text[0] != "~":
        n = ord(text[0]) - 63
        body_at = 1
    else:
        if len(text) >= 2 and text[1] == "~":
            raise MalformedGraph6("graph6 sizes above 258047 are not supported", base + 1)
        if len(text) < 4:
            raise MalformedGraph6("truncated multi-byte size header", base + len(text))
        n = ((ord(text[1]) - 63) << 12) | ((ord(text[2]) - 63) << 6) | (ord(text[3]) - 63)
        body_at = 4
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = text[body_at:]
    if len(body) < need:
        raise MalformedGraph6(f"body has {len(body)} bytes, expected {need}", base + len(text))
    if len(body) > need:
        raise MalformedGraph6(f"trailing data after {need} body bytes", base + body_at + need)
    bits = body.translate(_G6_BITS)
    # the final sextet must be zero-padded
    padding = bits.find("1", nbits)
    if padding >= 0:
        raise MalformedGraph6("nonzero padding bit", base + body_at + padding // 6)
    pairs = []
    k = bits.find("1")
    while k >= 0:
        j = (1 + isqrt(1 + 8 * k)) // 2
        pairs.append((k - j * (j - 1) // 2 + 1, j + 1))
        k = bits.find("1", k + 1)
    return Graph(n, tuple(sorted(pairs)))


def data_lines(text: str):
    """Yield (lineno, line, raw) for each line of text that still holds data
    once its '#' comment is cut off: the 1-based line number, the data
    stripped of surrounding whitespace, and the line as written."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line, raw


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text: header line 'n m', then m lines 'i j', 1-based,
    one line per edge. An edge listed twice, in either orientation, raises
    MalformedEdgeList naming the line that repeats it.
    """
    header: tuple[int, int] | None = None
    pairs: list[tuple[int, int]] = []
    first_line: dict[tuple[int, int], int] = {}
    for lineno, line, raw in data_lines(text):
        parts = line.split()
        try:
            nums = [int(p) for p in parts]
        except ValueError:
            raise MalformedEdgeList(f"line {lineno}: expected integers, got {raw.strip()!r}") from None
        if header is None:
            if len(nums) != 2:
                raise MalformedEdgeList(f"line {lineno}: header must be 'n m', got {raw.strip()!r}")
            header = (nums[0], nums[1])
            continue
        if len(nums) != 2:
            raise MalformedEdgeList(f"line {lineno}: edge line must be 'i j', got {raw.strip()!r}")
        i, j = nums
        edge = (i, j) if i < j else (j, i)
        if edge in first_line:
            raise MalformedEdgeList(f"line {lineno}: edge ({i},{j}) already listed on line {first_line[edge]}")
        first_line[edge] = lineno
        pairs.append((i, j))
    if header is None:
        raise MalformedEdgeList("no header line 'n m' found")
    n, m = header
    if len(pairs) != m:
        raise MalformedEdgeList(f"header declares {m} edges but {len(pairs)} edge lines follow")
    return from_edge_list(n, pairs)


def emit_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{i} {j}" for i, j in g.edges)
    return "\n".join(lines) + "\n"
