"""Spans around calls into each graphlifts module, recorded from outside the
library.

Callers bind library functions at import (`from .spectra import charpoly`),
so a wrapper is installed on every graphlifts module attribute that holds the
original function, which is where each caller looks it up. Spans are kept in
memory as flat arrays; self time is derived from the child spans when the
traced pass ends, and the spans are then written out.
"""

from __future__ import annotations

import sys
import time
from array import array

# (span name, defining module, function). Berkowitz gets its name per call.
TRACED = [
    ("cli.main", "graphlifts.cli", "main"),
    ("cli.poly_text", "graphlifts.algebra", "poly_text"),
    ("graphs.parse", "graphlifts.graphs", "parse_graph6"),
    ("graphs.parse", "graphlifts.graphs", "parse_edge_list"),
    ("lifts.parse_signature", "graphlifts.lifts", "parse_signature"),
    ("lifts.build_lift", "graphlifts.lifts", "build_lift"),
    ("algebra.berkowitz", "graphlifts.algebra", "berkowitz_charpoly"),
    ("spectra.charpoly", "graphlifts.spectra", "charpoly"),
    ("spectra.verify_decomposition", "graphlifts.spectra", "verify_decomposition"),
    ("isomorphism.canonical_form", "graphlifts.isomorphism", "canonical_form"),
    ("isomorphism.are_isomorphic", "graphlifts.isomorphism", "are_isomorphic"),
    ("search.search", "graphlifts.search", "search"),
    ("search.signature_from_rank", "graphlifts.search", "signature_from_rank"),
]

# Span names whose calls and self time are reported.
CALLS = [
    "algebra.berkowitz.int", "algebra.berkowitz.cyclo", "spectra.charpoly",
    "spectra.verify_decomposition", "search.signature_from_rank", "cli.poly_text",
    "lifts.build_lift", "graphs.parse", "isomorphism.canonical_form",
]
SELF = CALLS + [
    "search.search", "cli.main", "lifts.parse_signature", "isomorphism.are_isomorphic",
]


def _berkowitz_name(args, kwargs) -> str:
    zero = kwargs.get("zero", args[1] if len(args) > 1 else 0)
    return "algebra.berkowitz.int" if isinstance(zero, int) else "algebra.berkowitz.cyclo"


class Tracer:
    """Records one span per wrapped call: name, op, parent span, start, end."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("H")
        self.op = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_op = -1
        self.charpolys: set = set()
        self.counts = {"search.rows": 0, "lifts.build_lift.vertices": 0}
        self._installed: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn):
        clock = time.perf_counter
        fixed = self._name_id(name) if name != "algebra.berkowitz" else None
        inspect_result = name in ("spectra.charpoly", "lifts.build_lift", "search.search")

        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self._name_id(_berkowitz_name(args, kwargs))
            idx = len(self.start)
            self.name.append(nid)
            self.op.append(self.current_op)
            self.parent.append(self.stack[-1])
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.stack.pop()
            if inspect_result:
                self._count_result(name, result)
            return result

        return traced

    def _count_result(self, name: str, result) -> None:
        if name == "spectra.charpoly":
            self.charpolys.add(tuple(result))
        elif name == "lifts.build_lift":
            self.counts["lifts.build_lift.vertices"] += result.n
        else:
            self.counts["search.rows"] += len(result)

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "graphlifts" or key.startswith("graphlifts.")]
        for name, module_name, attr in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._installed.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def layer_metrics(self, stdout_bytes: int) -> dict[str, float]:
        """Per-layer counts and self times (span time not covered by child
        spans) over everything recorded."""
        count = len(self.start)
        child = [0.0] * count
        for k in range(count):
            p = self.parent[k]
            if p >= 0:
                child[p] += self.end[k] - self.start[k]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for k in range(count):
            calls[self.name[k]] += 1
            self_s[self.name[k]] += self.end[k] - self.start[k] - child[k]
        by_name = {n: (calls[i], self_s[i]) for i, n in enumerate(self.names)}
        metrics: dict[str, float] = {}
        for n in CALLS:
            metrics[f"{n}.calls"] = by_name.get(n, (0, 0.0))[0]
        for n in SELF:
            metrics[f"{n}.self_s"] = by_name.get(n, (0, 0.0))[1]
        charpoly_calls = metrics["spectra.charpoly.calls"]
        metrics["spectra.charpoly.distinct_ratio"] = len(self.charpolys) / charpoly_calls if charpoly_calls else 0.0
        metrics.update(self.counts)
        rows = self.counts["search.rows"]
        metrics["search.rows_per_charpoly"] = rows / charpoly_calls if charpoly_calls else 0.0
        metrics["cli.stdout_bytes"] = stdout_bytes
        return metrics

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\top\tparent\tname\tstart_s\tend_s\n")
            for k in range(len(self.start)):
                fh.write(
                    f"{k}\t{self.op[k]}\t{self.parent[k]}\t{self.names[self.name[k]]}\t"
                    f"{self.start[k]:.9f}\t{self.end[k]:.9f}\n"
                )
