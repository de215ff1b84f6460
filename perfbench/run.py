"""graphlifts benchmark: one workload, one seed, one line of JSON results.

    python3 perfbench/run.py --workload search-z3 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. Each run self-checks the correctness
gate, then starts SETUPS fresh worker processes one after another. Each
imports graphlifts, builds the workload's inputs from the seed and loads them
with graphlifts; set-up time is the median over the workers of that span,
timed inside each worker. The middle worker also runs the workload's ops
through `graphlifts.cli.main` until --seconds have passed, checking every
op's output; the set-ups before and after it spread the samples over the
run, so one slow phase of the host weighs less. With --trace 0 the
end-to-end metrics of BENCHMARK.json are reported; with --trace 1 the
per-layer metrics, from one extra traced pass. The last line of stdout is
the JSON result; the lines before it repeat every metric with its unit, the
error rate, and the machine, Python version and revision the result was
measured on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import gate
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 11
RUN_LIMIT_S = 170  # every worker is killed by then, so a run ends within 180 s


def git_revision() -> str:
    """HEAD's commit id, or 'none' outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def run_workers(args, workdir: str) -> tuple[list[float], dict]:
    """Start SETUPS workers one after another; return their set-up times and
    the measurements of the middle one, which runs the ops."""
    deadline = time.monotonic() + RUN_LIMIT_S
    setup_s: list[float] = []
    result = None
    for k in range(SETUPS):
        runs_ops = k == SETUPS // 2
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir,
        ]
        if not runs_ops:
            cmd.append("--setup-only")
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            ready = proc.stdout.readline().split()
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            killer.cancel()
            proc.kill()
            proc.wait()
            proc.stdout.close()
        if len(ready) != 2 or ready[0] != "ready" or code != 0:
            raise RuntimeError(f"worker exited with {code} (set-up {'done' if ready else 'not done'})")
        setup_s.append(float(ready[1]))
        if runs_ops:
            result = json.loads(rest.strip().splitlines()[-1])
    return setup_s, result


def percentile(values: list[float], fraction: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(ROOT, "src", "graphlifts", "cli.py")):
        print(f"error: no graphlifts sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    problems = gate.self_check()
    if problems:
        print("error: correctness gate self-check failed: " + "; ".join(problems), file=sys.stderr)
        return 3
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    workdir = os.path.join(ROOT, ".perfbench_work", args.workload)
    # Emptied once per run: the first worker writes the seed's inputs and
    # the others find them already there (see inputs._write).
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        setup_s, raw = run_workers(args, workdir)
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4

    values = {
        "setup_s": statistics.median(setup_s),
        "wall_s": raw["wall_s"],
        "first_row_s": sum(raw["first_byte_s"]),
        "op_p50_ms": statistics.median(raw["op_ms"]),
        "op_p90_ms": percentile(raw["op_ms"], 0.9),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    if args.trace:
        values.update(raw["layers"])
        values["trace.overhead_s"] = raw["traced_pass_s"] - values["wall_s"]
    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 4
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"git={git_revision()}"
    )
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}")
    attempted, failed = raw["attempted"], raw["failed"]
    print(f"  {'error_rate':36s} {failed / attempted:>14.6g} ratio ({failed} of {attempted} ops failed)")
    print(f"  {raw['passes']} timed pass(es) of {raw['ops_per_pass']} ops; {SETUPS} set-ups")
    if args.trace:
        wall = raw["traced_pass_s"]
        shares = {n[: -len(".self_s")]: v / wall for n, v in values.items() if n.endswith(".self_s") and v}
        top = sorted(shares.items(), key=lambda kv: -kv[1])
        print("  self-time shares of the traced pass: " + ", ".join(f"{n} {s:.1%}" for n, s in top))
    for reason in raw["failures"]:
        print(f"  FAILED {reason}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
