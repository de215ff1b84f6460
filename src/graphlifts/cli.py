"""Command-line interface.

Commands: lift, charpoly, cospectral, iso, verify-mota, search, verify-paper.
Exit codes: 0 = claim verified / cospectral / isomorphic, 1 = negative
result, 2 = usage or input error (a malformed or non-UTF-8 file included).
All output is deterministic: identical inputs produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import fixtures
from .algebra import AbelianGroup, AlgebraError, parse_group, poly_text
from .graphs import (
    Graph,
    GraphError,
    adjacency_matrix,
    adjacency_matrix_problems,
    data_lines,
    emit_edge_list,
    emit_graph6,
    from_adjacency_matrix,
    parse_edge_list,
    parse_graph6,
)
from .isomorphism import TooLarge, are_isomorphic
from .lifts import (
    Signature,
    SignatureError,
    build_lift,
    constant_signature,
    emit_signature,
    parse_signature,
)
from .search import (
    BudgetExceeded,
    SearchOptions,
    WrongBaseGraph,
    corollary_generate,
    rank_blocks,
    signature_from_rank,
)
from .spectra import charpoly, cospectral, verify_decomposition

# verify-mota's ceiling on the lift order n*|Gr|, timed in the README
LIFT_CEILING = 84

# charpoly's and cospectral's ceiling on a graph's vertex count, timed in the README
CHARPOLY_CEILING = 100


def matrix_problems(m) -> list[str]:
    """Violations of the transcription invariants: the adjacency-matrix
    rules of graphs.adjacency_matrix_problems and, for a square matrix,
    exactly 42 ones."""
    problems = adjacency_matrix_problems(m)
    if all(len(row) == len(m) for row in m):
        ones = sum(sum(row) for row in m)
        if ones != 42:
            problems.append(f"{ones} ones, expected 42")
    return problems


def fixture_set():
    """The bundled example: the `fixtures` module itself. Only the set-up of
    perfbench/worker.py calls it."""
    return fixtures


def _read_text(path: str) -> str:
    """The contents of a file, or of stdin when path is "-". Text that is not
    UTF-8 is an input error that names where it came from."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise SystemExit2(f"{'stdin' if path == '-' else repr(path)} is not UTF-8 text: {exc}") from None


def load_graph(path: str) -> Graph:
    """Read a graph file: edge-list text if the first data line is numeric,
    otherwise graph6."""
    text = _read_text(path)
    for _, line, _ in data_lines(text):
        parts = line.split()
        if all(p.lstrip("-").isdigit() for p in parts) and len(parts) >= 2:
            return parse_edge_list(text)
        return parse_graph6(line)
    raise GraphError(f"no graph data found in {path!r}")


def load_signature(path: str, base: Graph) -> Signature:
    return parse_signature(_read_text(path), base)


def emit_graph(g: Graph, fmt: str) -> str:
    if fmt == "g6":
        return emit_graph6(g) + "\n"
    if fmt == "edges":
        return emit_edge_list(g)
    if fmt == "matrix":
        return "".join(" ".join(str(v) for v in row) + "\n" for row in adjacency_matrix(g))
    raise ValueError(f"unknown output format {fmt!r}")


def _cmd_lift(args) -> int:
    base = load_graph(args.graph)
    sig = load_signature(args.signature, base)
    lifted = build_lift(base, sig)
    sys.stdout.write(emit_graph(lifted, args.out or args.format))
    return 0


def _charpoly_inputs(command: str, *paths: str) -> list[Graph]:
    graphs = [load_graph(path) for path in paths]
    if (n := max(g.n for g in graphs)) > CHARPOLY_CEILING:
        raise SystemExit2(f"{command} supports graphs of at most {CHARPOLY_CEILING} vertices, got {n}")
    return graphs


def _cmd_charpoly(args) -> int:
    (g,) = _charpoly_inputs("charpoly", args.graph)
    print(poly_text(charpoly(g)))
    return 0


def _cmd_cospectral(args) -> int:
    same = cospectral(*_charpoly_inputs("cospectral", args.graph_a, args.graph_b))
    print("cospectral" if same else "not cospectral")
    return 0 if same else 1


def _cmd_iso(args) -> int:
    a = load_graph(args.graph_a)
    b = load_graph(args.graph_b)
    ok, mapping = are_isomorphic(a, b)
    if ok:
        print("isomorphic")
        print("mapping: " + " ".join(str(v) for v in mapping))
        return 0
    print("not isomorphic")
    return 1


def _cmd_verify_mota(args) -> int:
    base = load_graph(args.graph)
    sig = load_signature(args.signature, base)
    if (order := base.n * sig.group.fiber_size()) > LIFT_CEILING:
        raise SystemExit2(f"verify-mota supports lifts of at most {LIFT_CEILING} vertices, got {order}")
    report = verify_decomposition(base, sig)
    print(f"lift charpoly:      {poly_text(report.lift_poly)}")
    print(f"character product:  {poly_text(report.product_poly)}")
    print("HOLDS" if report.holds else "FAILS")
    return 0 if report.holds else 1


def _cmd_search(args) -> int:
    """Write the rows of search.rank_blocks, one line per signature pair. A
    G class's row tails ("rank_h charpoly conditions non-isomorphic") are
    formatted on its first rank, and each G rank's rows are written as one
    block: the rank, then each tail prefixed by the rank after the first."""
    if args.fixture_pair:
        g, h = fixtures.BASE_G, fixtures.BASE_H
    else:
        if not (args.base_g and args.base_h):
            raise SystemExit2("search needs --base-g and --base-h, or --fixture-pair")
        g = load_graph(args.base_g)
        h = load_graph(args.base_h)
    gr = parse_group(args.group)
    options = SearchOptions(filter_by_theorem=args.filter_by_theorem, budget=args.budget)
    blocks = rank_blocks(g, h, gr, options)
    sig_dir = args.emit_signatures
    if sig_dir:
        os.makedirs(sig_dir, exist_ok=True)
    tails_of_class: dict[int, list[str]] = {}
    emitted_h: set[int] = set()
    out = sys.stdout
    for rank_g, cg, poly, rows in blocks:
        tails = tails_of_class.get(cg)
        if tails is None:
            text = poly_text(list(poly))
            tails = tails_of_class[cg] = [
                f"{rank_h} {text} {'-' if cond is None else int(cond)} {int(non_iso)}\n"
                for rank_h, cond, non_iso in rows
            ]
        prefix = f"{rank_g} "
        out.write(prefix + prefix.join(tails))
        if sig_dir:
            _write_signature(sig_dir, "g", rank_g, g, gr)
            for rank_h, _, _ in rows:
                if rank_h not in emitted_h:
                    emitted_h.add(rank_h)
                    _write_signature(sig_dir, "h", rank_h, h, gr)
    return 0


def _write_signature(sig_dir: str, side: str, rank: int, base: Graph, gr: AbelianGroup) -> None:
    path = os.path.join(sig_dir, f"{side}-{rank}.sig")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit_signature(signature_from_rank(base, gr, rank)))


def _decomposition_subcases():
    """The abelian (base, signature) sub-cases checked by the fixture suite:
    the square's 2-lift, both constant involution lifts, and the cyclic-group
    image of the bundled signatures via the corollary substitution."""
    z2 = AbelianGroup((2,))
    sg3, sh3 = corollary_generate(
        AbelianGroup((3,)), u=(1,), v=(2,), w=(0,), x=(2,), y=(2,), r=(0,), v1=(0,), x1=(0,)
    )
    return [
        (fixtures.SQUARE, fixtures.SQUARE_SIGNATURE),
        (fixtures.BASE_G, constant_signature(fixtures.BASE_G, z2, (1,))),
        (fixtures.BASE_H, constant_signature(fixtures.BASE_H, z2, (1,))),
        (fixtures.BASE_G, sg3),
        (fixtures.BASE_H, sh3),
    ]


def run_bundled_checks() -> tuple[list[str], bool]:
    """The bundled verification suite. Returns the report lines and whether
    every expected-pass check (1, 2, 3, 6) passed; checks 4 and 5 are
    informational."""
    g, h = fixtures.BASE_G, fixtures.BASE_H
    checks: list[tuple[str, bool | None, str]] = []  # (tag, ok or None for INFO, text)

    # (1) the 6-vertex base pair
    p_g, p_h = charpoly(g), charpoly(h)
    checks.append(
        ("(1)", p_g == p_h, f"base pair cospectral: charpoly {poly_text(p_g)} vs {poly_text(p_h)}")
    )

    # (2) transcribed 18x18 matrices; graphs are built only from well-formed ones
    probs = matrix_problems(fixtures.LIFT_MATRIX_G) + matrix_problems(fixtures.LIFT_MATRIX_H)
    fg = fh = None
    if probs:
        ok2, detail = False, "; ".join(probs)
    else:
        fg = from_adjacency_matrix(fixtures.LIFT_MATRIX_G)
        fh = from_adjacency_matrix(fixtures.LIFT_MATRIX_H)
        p_fg = charpoly(fg)
        ok2, detail = p_fg == charpoly(fh), f"shared charpoly {poly_text(p_fg)}"
    checks.append(("(2)", ok2, f"transcribed matrices well-formed and cospectral: {detail}"))

    # (3) lifts rebuilt from the bundled signatures
    built_g = build_lift(g, fixtures.EXAMPLE_SIGNATURE_G)
    built_h = build_lift(h, fixtures.EXAMPLE_SIGNATURE_H)
    ok3 = (
        cospectral(built_g, built_h)
        and built_g.n == 18
        and built_h.n == 18
        and len(built_g.edges) == 21
        and len(built_h.edges) == 21
    )
    checks.append(("(3)", ok3, "constructed lifts cospectral: 18 vertices, 21 edges each"))

    # (4) constructed lifts vs the transcribed matrices (the source material
    # never documents its vertex ordering, so this is reported, not asserted)
    if fg is None:
        checks.append(
            ("(4)", None, "constructed vs transcribed: not compared, the transcription is malformed")
        )
    else:
        iso = ["yes" if are_isomorphic(b, t)[0] else "no" for b, t in ((built_g, fg), (built_h, fh))]
        checks.append(("(4)", None, f"constructed vs transcribed: G side isomorphic: {iso[0]}; "
                       f"H side isomorphic: {iso[1]}"))
        anomalies = _matching_anomalies()
        if anomalies:
            checks.append(("(4)", None, "transcription note: fiber blocks without matching structure "
                           "under the package vertex order: " + ", ".join(anomalies)
                           + " (reported, not corrected)"))

    # (5) the constructed pair itself
    iso_pair, _ = are_isomorphic(built_g, built_h)
    checks.append(("(5)", None, f"constructed lift pair non-isomorphic: {'yes' if not iso_pair else 'no'}"))

    # (6) character decomposition on abelian sub-cases
    cases = _decomposition_subcases()
    sub_ok = sum(verify_decomposition(base, sig).holds for base, sig in cases)
    text = f"character decomposition on abelian sub-cases: {sub_ok}/{len(cases)} hold"
    checks.append(("(6)", sub_ok == len(cases), text))
    lines = [f"{'INFO' if ok is None else 'PASS' if ok else 'FAIL'} {tag} {text}" for tag, ok, text in checks]
    return lines, all(ok is not False for _, ok, _ in checks)


def _matching_anomalies() -> list[str]:
    """Fiber blocks of the transcribed matrices that are not permutation
    matrices under the vertex-major order used by build_lift."""
    out = []
    for name, base, matrix in (
        ("G", fixtures.BASE_G, fixtures.LIFT_MATRIX_G),
        ("H", fixtures.BASE_H, fixtures.LIFT_MATRIX_H),
    ):
        d = 3
        for i, j in base.edges:
            block_rows = [
                [matrix[(i - 1) * d + a][(j - 1) * d + b] for b in range(d)] for a in range(d)
            ]
            rows_ok = all(sum(row) == 1 for row in block_rows)
            cols_ok = all(sum(col) == 1 for col in zip(*block_rows))
            if not (rows_ok and cols_ok):
                out.append(f"{name}({i},{j})")
    return out


def _cmd_verify_paper(_args) -> int:
    lines, ok = run_bundled_checks()
    for line in lines:
        print(line)
    return 0 if ok else 1


class SystemExit2(Exception):
    """Usage or input error surfaced with exit code 2."""


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared after it.

    One parent parser declares --format, --jobs and --budget with suppressed
    defaults, so a subcommand's parser leaves alone a value given before the
    subcommand; main supplies the defaults.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("g6", "edges", "matrix"),
        default=argparse.SUPPRESS,
        help="default graph output format",
    )
    common.add_argument(
        "--jobs", type=int, default=argparse.SUPPRESS, help="accepted for compatibility; has no effect"
    )
    common.add_argument(
        "--budget", type=int, default=argparse.SUPPRESS, help="max signatures per side for search"
    )
    parser = argparse.ArgumentParser(
        prog="graphlifts",
        description="Voltage lifts of graphs, exact spectra, and cospectral pair search.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, parents=[common])
        p.set_defaults(func=func)
        return p

    p = command("lift", _cmd_lift, "build the lift selected by a signature file")
    p.add_argument("--graph", required=True, help="base graph file (graph6 or edge list)")
    p.add_argument("--signature", required=True, help="signature file")
    p.add_argument("--out", choices=("g6", "edges", "matrix"), help="output format (overrides --format)")

    p = command("charpoly", _cmd_charpoly, "exact characteristic polynomial of a graph")
    p.add_argument("graph", help="graph file")

    p = command("cospectral", _cmd_cospectral, "exit 0 iff two graphs are cospectral")
    p.add_argument("graph_a")
    p.add_argument("graph_b")

    p = command("iso", _cmd_iso, "exit 0 iff two graphs are isomorphic")
    p.add_argument("graph_a")
    p.add_argument("graph_b")

    p = command("verify-mota", _cmd_verify_mota, "check the character-decomposition identity for a lift")
    p.add_argument("--graph", required=True)
    p.add_argument("--signature", required=True)

    p = command("search", _cmd_search, "search a signature space for cospectral lift pairs")
    p.add_argument("--base-g", help="G-side base graph file")
    p.add_argument("--base-h", help="H-side base graph file")
    p.add_argument("--fixture-pair", action="store_true", help="use the bundled base pair")
    p.add_argument("--group", required=True, help="abelian group spec, e.g. Z2 or Z2xZ4")
    p.add_argument(
        "--filter-by-theorem",
        action="store_true",
        help="keep only pairs passing both cospectrality conditions (bundled pair only)",
    )
    p.add_argument("--emit-signatures", metavar="DIR", help="write signature files for results")

    command("verify-paper", _cmd_verify_paper, "run the bundled fixture verification suite")
    return parser


def main(argv=None) -> int:
    # The shared options' defaults. set_defaults would write them into the
    # option objects, which the parsers share through `parents`, and the
    # subcommand's parser would then overwrite a value given before it.
    defaults = argparse.Namespace(format="g6", budget=SearchOptions.budget)
    args = build_parser().parse_args(argv, defaults)
    try:
        return args.func(args)
    except (GraphError, SignatureError, AlgebraError, WrongBaseGraph, BudgetExceeded,
            TooLarge, SystemExit2) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream consumer (head, etc.) closed the pipe; not an error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
