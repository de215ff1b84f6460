"""Correctness gate: decides whether one CLI op gave the right answer.

An outcome is what the worker saw of one `graphlifts.cli.main` call: the
exit code, the sha256, byte count and row count of everything written to
stdout, and the first bytes of stdout as text.
"""

from __future__ import annotations

# `--jobs 1 search --fixture-pair --group Z3`, pinned from the seed commit.
SEARCH_Z3_ROWS = 531441
SEARCH_Z3_BYTES = 52856874
SEARCH_Z3_SHA256 = "288c441e89aac8e9a21a76025cfefff3a1711dc155365afbdeebac831d1a04f8"


def check(op: dict, outcome: dict) -> str | None:
    """None when the op's outcome is correct, otherwise the reason it is not."""
    if outcome.get("error"):
        return f"raised {outcome['error']}"
    return CHECKS[op["kind"]](op, outcome)


def _check_search(op: dict, out: dict) -> str | None:
    if out["exit"] != 0:
        return f"exit {out['exit']}, expected 0"
    if out["rows"] != SEARCH_Z3_ROWS or out["bytes"] != SEARCH_Z3_BYTES:
        return f"{out['rows']} rows / {out['bytes']} bytes, expected {SEARCH_Z3_ROWS} / {SEARCH_Z3_BYTES}"
    if out["sha256"] != SEARCH_Z3_SHA256:
        return f"stdout sha256 {out['sha256']} differs from the pinned digest"
    return None


def _check_decompose(op: dict, out: dict) -> str | None:
    if out["exit"] != 0:
        return f"exit {out['exit']}, expected 0"
    lines = out["text"].splitlines()
    if len(lines) != 3 or lines[2] != "HOLDS":
        return f"expected two charpoly lines and HOLDS, got {lines[-1:]}"
    lift_poly, product_poly = (line.split(":", 1)[1].strip() for line in lines[:2])
    if lift_poly != product_poly:
        return "HOLDS printed for different polynomials"
    return None


def _check_iso(op: dict, out: dict) -> str | None:
    expected = 0 if op["isomorphic"] else 1
    if out["exit"] != expected:
        return f"exit {out['exit']}, expected {expected}"
    lines = out["text"].splitlines()
    if not op["isomorphic"]:
        return None if lines == ["not isomorphic"] else f"unexpected output {lines[:2]}"
    if len(lines) != 2 or lines[0] != "isomorphic" or not lines[1].startswith("mapping:"):
        return f"unexpected output {lines[:2]}"
    try:
        mapping = [int(v) for v in lines[1].split(":", 1)[1].split()]
    except ValueError:
        return "mapping is not a list of integers"
    n = len(mapping)
    if sorted(mapping) != list(range(1, n + 1)):
        return "mapping is not a permutation"
    b_edges = {tuple(e) for e in op["b"]}
    if len(op["a"]) != len(b_edges) or any(max(e) > n for e in op["a"] + op["b"]):
        return "mapping has the wrong size"
    for i, j in op["a"]:
        x, y = mapping[i - 1], mapping[j - 1]
        if (min(x, y), max(x, y)) not in b_edges:
            return f"mapping sends edge ({i},{j}) of A to a non-edge of B"
    return None


CHECKS = {"search": _check_search, "decompose": _check_decompose, "iso": _check_iso}


def self_check() -> list[str]:
    """Feed the gate known-good and known-bad outcomes; return every case it
    judges wrongly. A wrong digest, a wrong exit code and a mapping that does
    not carry A's edges onto B's must each count as a failed op."""
    search = {"kind": "search"}
    good_search = {
        "exit": 0, "rows": SEARCH_Z3_ROWS, "bytes": SEARCH_Z3_BYTES, "sha256": SEARCH_Z3_SHA256, "text": "",
    }
    decompose = {"kind": "decompose"}
    holds = "lift charpoly:      [1, 0, -1]\ncharacter product:  [1, 0, -1]\nHOLDS\n"
    # path 1-2-3 onto path 1-3-2: the middle vertex 2 must go to 3
    iso = {"kind": "iso", "isomorphic": True, "a": [[1, 2], [2, 3]], "b": [[1, 3], [2, 3]]}
    non_iso = dict(iso, isomorphic=False)
    cases = [
        ("correct search", search, good_search, True),
        ("wrong digest", search, dict(good_search, sha256="0" * 64), False),
        ("wrong row count", search, dict(good_search, rows=SEARCH_Z3_ROWS - 1), False),
        ("search exit 2", search, dict(good_search, exit=2), False),
        ("search raised", search, dict(good_search, error="RuntimeError()"), False),
        ("correct decomposition", decompose, {"exit": 0, "text": holds}, True),
        ("decomposition FAILS", decompose, {"exit": 1, "text": holds.replace("HOLDS", "FAILS")}, False),
        ("HOLDS with exit 1", decompose, {"exit": 1, "text": holds}, False),
        ("HOLDS for unequal polys", decompose, {"exit": 0, "text": holds.replace("-1]\nH", "1]\nH")}, False),
        ("correct mapping", iso, {"exit": 0, "text": "isomorphic\nmapping: 1 3 2\n"}, True),
        ("mapping off the edges", iso, {"exit": 0, "text": "isomorphic\nmapping: 1 2 3\n"}, False),
        ("mapping not a bijection", iso, {"exit": 0, "text": "isomorphic\nmapping: 3 3 2\n"}, False),
        ("iso exit 1 when isomorphic", iso, {"exit": 1, "text": "not isomorphic\n"}, False),
        ("correct non-isomorphic", non_iso, {"exit": 1, "text": "not isomorphic\n"}, True),
        ("iso exit 0 when not isomorphic", non_iso, {"exit": 0, "text": "isomorphic\nmapping: 1 3 2\n"}, False),
    ]
    return [
        f"gate judged '{name}' {'wrong' if should_pass else 'correct'}"
        for name, op, outcome, should_pass in cases
        if (check(op, outcome) is None) != should_pass
    ]
