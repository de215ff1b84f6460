"""One benchmark process: set up a workload's inputs, then run its ops through
`graphlifts.cli.main` in this process until the time budget is spent.

Set-up runs from the first line of this file to the end of a graphlifts load
of every input: it covers importing graphlifts, writing the workload's inputs
and parsing them with the program's own loaders. Interpreter start-up is not
part of it. The worker then prints `ready <set-up seconds>` and, as its last
line, one JSON object with the raw measurements. With --trace 1 a traced
pass follows the timed passes. Run by perfbench/run.py.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import gate  # noqa: E402
import inputs  # noqa: E402
from tracing import Tracer  # noqa: E402


class Sink(io.RawIOBase):
    """Stands in for the stdout file: hashes and counts the bytes as they
    arrive and keeps only the first KEEP of them, so a large output is never
    held in memory."""

    KEEP = 1 << 16

    def __init__(self):
        super().__init__()
        self.sha = hashlib.sha256()
        self.nbytes = 0
        self.rows = 0
        self.head = bytearray()
        self.first_write = None

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        if self.first_write is None:
            self.first_write = time.perf_counter()
        data = bytes(b)
        self.sha.update(data)
        self.nbytes += len(data)
        self.rows += data.count(b"\n")
        if len(self.head) < self.KEEP:
            self.head += data[: self.KEEP - len(self.head)]
        return len(data)


def run_op(cli, argv: list[str]) -> tuple[dict, float, float]:
    """Call cli.main(argv) with stdout going to a Sink through the same
    buffered text layers a real stdout file has. Returns the outcome, the op
    time and the time to the first stdout byte, in seconds."""
    sink = Sink()
    out = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8")
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, io.StringIO()
    outcome = {"error": None}
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = None
        outcome["error"] = traceback.format_exc(limit=3).strip().splitlines()[-1]
    finally:
        out.flush()
        sys.stdout, sys.stderr = saved
    end = time.perf_counter()
    first = sink.first_write if sink.first_write is not None else end
    outcome.update(
        exit=code,
        rows=sink.rows,
        bytes=sink.nbytes,
        sha256=sink.sha.hexdigest(),
        text=sink.head.decode("utf-8", "replace"),
    )
    return outcome, end - start, first - start


def load_inputs(cli, ops: list[dict]) -> None:
    """Read every input file with the program's own loaders, as the ops will."""
    for op in ops:
        argv = op["argv"]
        if op["kind"] == "iso":
            cli.load_graph(argv[1])
            cli.load_graph(argv[2])
        elif op["kind"] == "decompose":
            cli.load_signature(argv[4], cli.load_graph(argv[2]))
        else:
            cli.fixture_set()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import graphlifts.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"graphlifts was imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    os.makedirs(args.workdir, exist_ok=True)
    ops = inputs.WORKLOADS[args.workload](args.workdir, args.seed)
    load_inputs(cli, ops)
    print(f"ready {time.perf_counter() - START!r}", flush=True)
    if args.setup_only:
        return 0

    failures: list[str] = []
    tracer = None

    def run_pass() -> tuple[float, list[float], list[float], int]:
        """One pass over every op; returns the pass time, each op's time and
        time to first stdout byte, and the stdout bytes written."""
        op_s, first_s, stdout_bytes = [], [], 0
        start = time.perf_counter()
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.current_op = k
            outcome, seconds, first_byte = run_op(cli, op["argv"])
            reason = gate.check(op, outcome)
            if reason is not None:
                failures.append(f"{' '.join(op['argv'])}: {reason}")
            op_s.append(seconds)
            first_s.append(first_byte)
            stdout_bytes += outcome["bytes"]
        return time.perf_counter() - start, op_s, first_s, stdout_bytes

    passes = []
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass())
    # Every statistic comes from the median pass, so they describe one pass.
    wall_s, op_s, first_s, _ = sorted(passes)[(len(passes) - 1) // 2]
    result = {
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "wall_s": wall_s,
        "op_ms": [1000 * t for t in op_s],
        "first_byte_s": first_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    attempted = len(passes) * len(ops)
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_s, _, _, stdout_bytes = run_pass()
        finally:
            tracer.uninstall()
        attempted += len(ops)
        result["traced_pass_s"] = traced_s
        result["layers"] = tracer.layer_metrics(stdout_bytes)
        tracer.write(os.path.join(args.workdir, "spans.tsv"))
    result.update(attempted=attempted, failed=len(failures), failures=failures[:10])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
