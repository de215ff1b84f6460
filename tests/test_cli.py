import hashlib
import importlib
import os
import random
import re
import resource
import subprocess
import sys
import time
from collections import Counter

import pytest

from graphlifts import cli, fixtures, lifts
from graphlifts.cli import load_graph, main, matrix_problems, run_bundled_checks
from graphlifts.graphs import (
    MalformedEdgeList,
    MalformedGraph6,
    emit_edge_list,
    emit_graph6,
    from_edge_list,
    parse_edge_list,
    parse_graph6,
)
from graphlifts.isomorphism import relabeled
from graphlifts.lifts import SignatureError, emit_signature, parse_signature


@pytest.fixture
def demo(tmp_path):
    paths = {}
    paths["g_edges"] = tmp_path / "g.edges"
    paths["g_edges"].write_text(emit_edge_list(fixtures.BASE_G))
    paths["h_g6"] = tmp_path / "h.g6"
    paths["h_g6"].write_text(emit_graph6(fixtures.BASE_H) + "\n")
    paths["sig_g"] = tmp_path / "sig_g.txt"
    paths["sig_g"].write_text(emit_signature(fixtures.EXAMPLE_SIGNATURE_G))
    paths["sig_z2"] = tmp_path / "sig_z2.txt"
    paths["sig_z2"].write_text(
        "group Z2\n1 2 : 1\n2 3 : 0\n2 4 : 1\n3 4 : 0\n3 5 : 1\n4 5 : 0\n5 6 : 1\n"
    )
    paths["tmp"] = tmp_path
    return paths


def test_load_graph_detects_format(demo):
    assert load_graph(str(demo["g_edges"])) == fixtures.BASE_G
    assert load_graph(str(demo["h_g6"])) == fixtures.BASE_H


def test_charpoly_command(demo, capsys):
    assert main(["charpoly", str(demo["g_edges"])]) == 0
    assert capsys.readouterr().out == "[1, 0, -7, -4, 7, 4, -1]\n"
    assert main(["charpoly", str(demo["h_g6"])]) == 0
    assert capsys.readouterr().out == "[1, 0, -7, -4, 7, 4, -1]\n"


def test_lift_command_formats(demo, capsys):
    assert main(["lift", "--graph", str(demo["g_edges"]), "--signature", str(demo["sig_g"])]) == 0
    g6_line = capsys.readouterr().out.strip()
    lifted = parse_graph6(g6_line)
    assert lifted.n == 18 and len(lifted.edges) == 21

    assert (
        main(["lift", "--graph", str(demo["g_edges"]), "--signature", str(demo["sig_g"]), "--out", "matrix"])
        == 0
    )
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 18
    matrix = [[int(v) for v in row.split()] for row in rows]
    assert matrix == [list(r) for r in fixtures.LIFT_MATRIX_G]

    assert (
        main(["lift", "--graph", str(demo["g_edges"]), "--signature", str(demo["sig_g"]), "--out", "edges"])
        == 0
    )
    out = capsys.readouterr().out
    assert out.startswith("18 21\n")


def test_cospectral_and_iso_exit_codes(demo, capsys, tmp_path):
    k3 = tmp_path / "k3.edges"
    k3.write_text(emit_edge_list(from_edge_list(3, [(1, 2), (2, 3), (1, 3)])))
    p3 = tmp_path / "p3.edges"
    p3.write_text(emit_edge_list(from_edge_list(3, [(1, 2), (2, 3)])))
    assert main(["cospectral", str(demo["g_edges"]), str(demo["h_g6"])]) == 0
    assert capsys.readouterr().out == "cospectral\n"
    assert main(["cospectral", str(k3), str(p3)]) == 1
    assert capsys.readouterr().out == "not cospectral\n"
    assert main(["iso", str(k3), str(p3)]) == 1
    assert capsys.readouterr().out == "not isomorphic\n"
    relabeled = tmp_path / "p3b.edges"
    relabeled.write_text("3 2\n1 3\n2 3\n")
    assert main(["iso", str(p3), str(relabeled)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "isomorphic"
    assert out[1].startswith("mapping: ")


def test_verify_mota_command(demo, capsys):
    assert main(["verify-mota", "--graph", str(demo["g_edges"]), "--signature", str(demo["sig_z2"])]) == 0
    out = capsys.readouterr().out
    assert "HOLDS" in out and out.count("[") == 2
    # non-abelian signature is an input error
    assert main(["verify-mota", "--graph", str(demo["g_edges"]), "--signature", str(demo["sig_g"])]) == 2


def test_search_command_output_format(demo, capsys):
    assert main(["search", "--fixture-pair", "--group", "Z2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2048
    first = lines[0].split()
    assert first[0] == "0" and first[1] == "0"
    assert lines[0].endswith(" 1 1")
    assert "[" in lines[0] and "]" in lines[0]


def test_search_emit_signatures(demo, capsys, tmp_path):
    outdir = tmp_path / "sigs"
    assert (
        main(
            [
                "search",
                "--fixture-pair",
                "--group",
                "Z2",
                "--filter-by-theorem",
                "--emit-signatures",
                str(outdir),
            ]
        )
        == 0
    )
    capsys.readouterr()
    names = sorted(p.name for p in outdir.iterdir())
    assert len(names) == 128
    assert names[0].startswith("g-") and names[-1].startswith("h-")
    text = (outdir / names[0]).read_text()
    assert text.startswith("group Z2\n")


def test_search_with_explicit_bases(demo, capsys, tmp_path):
    p4 = tmp_path / "p4.edges"
    p4.write_text(emit_edge_list(from_edge_list(4, [(1, 2), (2, 3), (3, 4)])))
    assert main(["search", "--base-g", str(p4), "--base-h", str(p4), "--group", "Z2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # off the bundled pair the condition flag is a dash
    assert all(line.split()[-2] == "-" for line in lines)
    diag = [line for line in lines if line.split()[0] == line.split()[1]]
    assert all(line.endswith(" 0") for line in diag)


def test_usage_and_input_errors(demo, capsys, tmp_path):
    assert main(["charpoly", str(tmp_path / "missing.g6")]) == 2
    bad = tmp_path / "bad.g6"
    bad.write_text("garbage\x01\n")
    assert main(["charpoly", str(bad)]) == 2
    assert main(["search", "--group", "Z2"]) == 2
    capsys.readouterr()
    assert main(["search", "--fixture-pair", "--group", "S3"]) == 2
    assert capsys.readouterr().err == "error: search requires an abelian group\n"
    assert main(["search", "--fixture-pair", "--group", "Z3", "--budget", "10"]) == 2
    p4 = tmp_path / "p4.edges"
    p4.write_text(emit_edge_list(from_edge_list(4, [(1, 2), (2, 3), (3, 4)])))
    assert main(["search", "--base-g", str(p4), "--base-h", str(p4), "--group", "Z2", "--filter-by-theorem"]) == 2
    capsys.readouterr()


def test_non_utf8_input_exits_2(demo, capsys, tmp_path):
    graph = tmp_path / "graph.bin"
    graph.write_bytes(b"\xff\n")
    assert main(["charpoly", str(graph)]) == 2
    sig = tmp_path / "sig.bin"
    sig.write_bytes(b"group Z2\n1 2 : \xff\n")
    assert main(["verify-mota", "--graph", str(demo["g_edges"]), "--signature", str(sig)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line[:7] for line in captured.err.splitlines()] == ["error: ", "error: "]
    first, second = captured.err.splitlines()
    assert str(graph) in first and str(sig) in second
    assert str(demo["g_edges"]) not in second


def test_edge_listed_twice_exits_2(capsys, tmp_path):
    # one 'i j' line per edge: a repeat, in either orientation, is named by
    # its line rather than merged into a graph with fewer edges than declared
    for text, line in (("3 2\n1 2\n2 1\n", "line 3: edge (2,1) already listed on line 2"),
                       ("# two\n3 3\n1 2\n2 3\n1 2\n", "line 5: edge (1,2) already listed on line 3")):
        with pytest.raises(MalformedEdgeList, match=f"^{re.escape(line)}$"):
            parse_edge_list(text)
        path = tmp_path / "twice.edges"
        path.write_text(text)
        assert main(["charpoly", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and line in captured.err


def test_shared_options_before_or_after_the_subcommand(demo, capsys):
    lift = ["lift", "--graph", str(demo["g_edges"]), "--signature", str(demo["sig_g"])]
    assert main(lift) == 0
    g6 = capsys.readouterr().out
    assert parse_graph6(g6.strip()).n == 18
    assert main(["--format", "edges"] + lift) == 0
    edges = capsys.readouterr().out
    assert edges.startswith("18 21\n")
    assert main(lift + ["--format", "edges"]) == 0
    assert capsys.readouterr().out == edges
    # --out overrides --format on either side of the subcommand
    assert main(["--format", "matrix"] + lift + ["--out", "edges"]) == 0
    assert capsys.readouterr().out == edges
    assert main(lift + ["--format", "matrix", "--out", "edges"]) == 0
    assert capsys.readouterr().out == edges
    # the parser is shared between calls, and no value leaks from one to the next
    assert main(lift) == 0
    assert capsys.readouterr().out == g6
    search = ["search", "--fixture-pair", "--group", "Z2"]
    assert main(["--budget", "10"] + search) == 2
    assert main(search + ["--budget", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("the budget is 10 per side") == 2


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_search_refuses_a_budget_below_one(capsys, budget):
    assert main(["search", "--fixture-pair", "--group", "Z2", "--budget", budget]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the budget must be at least 1 signature per side, got {budget}\n"


def test_parser_is_built_once_and_not_at_import():
    assert cli.build_parser() is cli.build_parser()
    code = "import graphlifts.cli as c; print(c.build_parser.cache_info().misses)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert run.returncode == 0 and run.stdout == "0\n"


def test_search_on_non_cospectral_bases_exits_2(capsys, tmp_path):
    p3 = tmp_path / "p3.edges"
    p3.write_text(emit_edge_list(from_edge_list(3, [(1, 2), (2, 3)])))
    k3 = tmp_path / "k3.edges"
    k3.write_text(emit_edge_list(from_edge_list(3, [(1, 2), (2, 3), (1, 3)])))
    assert main(["search", "--base-g", str(p3), "--base-h", str(k3), "--group", "Z2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: search requires cospectral base graphs")


def test_iso_past_size_ceiling_exits_2(capsys, tmp_path):
    path = tmp_path / "p193.edges"
    path.write_text(emit_edge_list(from_edge_list(193, [(i, i + 1) for i in range(1, 193)])))
    assert main(["iso", str(path), str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: isomorphism supports at most 192 vertices")


def test_verify_mota_past_lift_ceiling_exits_2(tmp_path):
    # K85 over Z1 is one vertex past the ceiling and would take seconds;
    # K2 over Z3000000 would build a lift of 6,000,000 vertices; K2 over Z42
    # is at the ceiling and runs.
    k85 = from_edge_list(85, [(i, j) for i in range(1, 86) for j in range(i + 1, 86)])
    cases = [
        (k85, "group Z1\n" + "".join(f"{i} {j} : 0\n" for i, j in k85.edges), 2, 85),
        (from_edge_list(2, [(1, 2)]), "group Z3000000\n1 2 : 1\n", 2, 6000000),
        (from_edge_list(2, [(1, 2)]), "group Z42\n1 2 : 1\n", 0, None),
    ]
    for k, (base, signature, code, order) in enumerate(cases):
        graph, sig = tmp_path / f"g{k}.edges", tmp_path / f"s{k}.sig"
        graph.write_text(emit_edge_list(base))
        sig.write_text(signature)
        cmd = [sys.executable, "-m", "graphlifts.cli", "verify-mota", "--graph", str(graph)]
        start = time.perf_counter()
        run = subprocess.run(cmd + ["--signature", str(sig)], capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - start < 1.0
        assert run.returncode == code, run.stderr
        if order is not None:
            assert run.stdout == ""
            assert run.stderr == f"error: verify-mota supports lifts of at most 84 vertices, got {order}\n"


@pytest.mark.parametrize("fmt", ["g6", "edges", "matrix"])
@pytest.mark.parametrize(
    "graph, signature, order",
    [
        ("2 1\n1 2\n", "group Z1000000000\n1 2 : 1\n", 2 * 10**9),
        ("1000000000 0\n", "group Z1\n", 10**9),
        ("1 0\n", "group Z4097\n", 4097),  # one past the ceiling
    ],
    ids=["K2 over Z1000000000", "10^9 vertices over Z1", "K1 over Z4097"],
)
def test_lift_past_its_ceiling_exits_2_before_building_the_lift(
    graph, signature, order, fmt, tmp_path, capsys, monkeypatch
):
    def refuse(*args):
        raise AssertionError("a lift was built past the ceiling")

    monkeypatch.setattr(cli, "build_lift", refuse)
    monkeypatch.setattr(lifts, "lift_neighbors", refuse)
    (tmp_path / "base.edges").write_text(graph)
    (tmp_path / "s.sig").write_text(signature)
    argv = ["lift", "--graph", str(tmp_path / "base.edges"), "--signature", str(tmp_path / "s.sig")]
    assert main([*argv, "--out", fmt]) == 2
    assert capsys.readouterr() == ("", f"error: lift supports lifts of at most 4096 vertices, got {order}\n")


@pytest.mark.parametrize("fmt", ["g6", "edges", "matrix"])
def test_lift_at_its_ceiling_runs_in_every_format(fmt, tmp_path, capsys):
    # K2 over Z2048: 4,096 vertices, a perfect matching
    (tmp_path / "k2.edges").write_text("2 1\n1 2\n")
    (tmp_path / "s.sig").write_text("group Z2048\n1 2 : 1\n")
    argv = ["lift", "--graph", str(tmp_path / "k2.edges"), "--signature", str(tmp_path / "s.sig"), "--out", fmt]
    assert cli.LIFT_OUTPUT_CEILING == 4096
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    lift = from_edge_list(4096, [(a + 1, 2048 + (a + 1) % 2048 + 1) for a in range(2048)])
    assert out == cli.emit_graph(lift, fmt)


@pytest.mark.parametrize("seed", range(8))
def test_matrix_output_is_the_adjacency_matrix_row_by_row(seed):
    # seeded graphs of 0-12 vertices against a rendering from the edge set
    rng = random.Random(f"matrix-out/{seed}")
    n = rng.randint(0, 12)
    pairs = {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.4}
    rows = [" ".join("1" if (min(i, j), max(i, j)) in pairs else "0" for j in range(1, n + 1)) for i in range(1, n + 1)]
    assert cli.emit_graph(from_edge_list(n, pairs), "matrix") == "".join(row + "\n" for row in rows)


def test_charpoly_of_k100_at_the_ceiling_is_exact_within_10_s(tmp_path, capsys):
    # K100, the densest graph the ceiling admits, has charpoly (t - 99)(t + 1)^99,
    # so the coefficient of t^k is C(99, k - 1) - 99 * C(99, k)
    n = 100
    path = tmp_path / "k100.edges"
    path.write_text(emit_edge_list(from_edge_list(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])))
    binomials = [1]  # C(99, 0..99), by Pascal's rule
    for _ in range(n - 1):
        binomials = [a + b for a, b in zip([0, *binomials], [*binomials, 0])]
    coeffs = [(binomials[k - 1] if k else 0) - (n - 1) * (binomials[k] if k < n else 0) for k in range(n + 1)]
    start = time.perf_counter()
    assert main(["charpoly", str(path)]) == 0
    assert time.perf_counter() - start < 10.0
    assert capsys.readouterr() == ("[" + ", ".join(str(c) for c in reversed(coeffs)) + "]\n", "")


def _limit_address_space():
    # 1 GiB: a 10^9-square matrix cannot start to be built under it
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def test_charpoly_and_cospectral_past_vertex_ceiling_exit_2(tmp_path):
    # P100 is at the ceiling and runs; P101 is one past it. The header
    # "1000000000 0" declares 10^9 vertices and no edge: it parses at once,
    # and the refusal must come before its adjacency matrix is built. Each run
    # is a child with a bounded address space, so a missing check fails with
    # MemoryError instead of taking the host's memory.
    p100, p101, huge = (str(tmp_path / name) for name in ("p100.edges", "p101.edges", "huge.edges"))
    for path, n in ((p100, 100), (p101, 101)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(emit_edge_list(from_edge_list(n, [(i, i + 1) for i in range(1, n)])))
    with open(huge, "w", encoding="utf-8") as fh:
        fh.write("1000000000 0\n")
    cases = [
        (["charpoly", p100], 0, None),
        (["cospectral", p100, p100], 0, None),
        (["charpoly", p101], 2, "charpoly", 101),
        (["cospectral", p100, p101], 2, "cospectral", 101),
        (["charpoly", huge], 2, "charpoly", 10**9),
        (["cospectral", huge, p100], 2, "cospectral", 10**9),
    ]
    for argv, code, *refusal in cases:
        start = time.perf_counter()
        run = subprocess.run(
            [sys.executable, "-m", "graphlifts.cli", *argv],
            capture_output=True, text=True, timeout=60, preexec_fn=_limit_address_space,
        )
        assert time.perf_counter() - start < 5.0
        assert run.returncode == code, run.stderr
        if refusal[0] is not None:
            command, n = refusal
            assert run.stdout == ""
            assert run.stderr == f"error: {command} supports graphs of at most 100 vertices, got {n}\n"


def test_search_refuses_a_canonical_form_before_writing_a_row(capsys, tmp_path):
    # K2 against itself: equal degree sequences, so each paired class needs
    # a canonical form, and over Z100 the lifts have 200 vertices
    k2 = tmp_path / "k2.edges"
    k2.write_text("2 1\n1 2\n")
    assert main(["search", "--base-g", str(k2), "--base-h", str(k2), "--group", "Z100"]) == 2
    assert capsys.readouterr() == ("", "error: canonical form supports at most 192 vertices, got 200\n")


def test_fixture_set_matrices_are_well_formed():
    assert matrix_problems(fixtures.LIFT_MATRIX_G) == []
    assert matrix_problems(fixtures.LIFT_MATRIX_H) == []
    assert cli.fixture_set() is fixtures


def test_matrix_problems_detects_defects():
    bad = [[0, 1], [0, 0]]
    assert any("asymmetric" in p for p in matrix_problems(bad))
    bad2 = [[1, 0], [0, 0]]
    assert any("diagonal" in p for p in matrix_problems(bad2))
    assert matrix_problems([[0, 1], [1]]) == ["not square: 2 rows of lengths [1, 2]"]


def test_verify_paper_expected_pass_set(capsys):
    lines, ok = run_bundled_checks()
    assert ok
    tags = {}
    for line in lines:
        status, tag = line.split()[0], line.split()[1]
        tags.setdefault(tag, []).append(status)
    assert tags["(1)"] == ["PASS"]
    assert tags["(2)"] == ["PASS"]
    assert tags["(3)"] == ["PASS"]
    assert all(s == "INFO" for s in tags["(4)"])
    assert tags["(5)"] == ["INFO"]
    assert tags["(6)"] == ["PASS"]
    assert main(["verify-paper"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4


@pytest.mark.parametrize(
    "defect, problems",
    [
        ("asymmetric", ["asymmetric at (1,2)", "43 ones, expected 42"]),
        ("short rows", ["not square: 18 rows of lengths [17]"]),
    ],
)
def test_verify_paper_reports_a_malformed_transcription(defect, problems, capsys, monkeypatch):
    matrix = [list(row) for row in fixtures.LIFT_MATRIX_G]
    if defect == "asymmetric":
        matrix[0][1] = 1  # (1,2) without (2,1)
    else:
        matrix = [row[:17] for row in matrix]
    monkeypatch.setattr(fixtures, "LIFT_MATRIX_G", tuple(tuple(row) for row in matrix))
    assert main(["verify-paper"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert [line.split()[1] for line in lines] == ["(1)", "(2)", "(3)", "(4)", "(5)", "(6)"]
    fail = [line for line in lines if line.startswith("FAIL")]
    assert len(fail) == 1 and fail[0].startswith("FAIL (2) ")
    assert all(p in fail[0] for p in problems)
    assert lines[3] == "INFO (4) constructed vs transcribed: not compared, the transcription is malformed"
    assert sum(line.startswith("PASS") for line in lines) == 3


# K4 minus an edge against a relabeling of itself: equal degree sequences,
# so canonical forms decide the last column of search.
K4_MINUS_EDGE = from_edge_list(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])

# sha256 of the stdout of in-process runs at the commit that pinned them;
# every later change must keep these bytes. Relative paths name the files
# that test_stdout_is_pinned writes.
PINNED_STDOUT = [
    (["verify-paper"], "33d0cbcdd453eeee4c40056607c7feec99eacc9600ce024bc05c42b08d4b2778"),
    (
        ["search", "--fixture-pair", "--group", "Z2"],
        "9cdbe9954b7a9dc3e0824c8dc3cb2c68e5f94968810e60812ec87778f085cda6",
    ),
    (
        ["search", "--fixture-pair", "--group", "Z3"],
        "288c441e89aac8e9a21a76025cfefff3a1711dc155365afbdeebac831d1a04f8",
    ),
    (
        ["search", "--fixture-pair", "--group", "Z2", "--filter-by-theorem"],
        "9cdbe9954b7a9dc3e0824c8dc3cb2c68e5f94968810e60812ec87778f085cda6",
    ),
    (
        ["search", "--base-g", "k4e.edges", "--base-h", "k4e-relabeled.edges", "--group", "Z3"],
        "105f3d8794c5a800ee1949328924532da2e743d2939e980528a05838045e464d",
    ),
    (
        ["search", "--base-g", "k4e.edges", "--base-h", "k4e-relabeled.edges", "--group", "Z2xZ2"],
        "7e182bbf1c7092ab6c9b4907bcf15c461043551220dabd3b708fc2e8600108a8",
    ),
]


@pytest.mark.parametrize("argv, digest", PINNED_STDOUT, ids=[" ".join(a) for a, _ in PINNED_STDOUT])
def test_stdout_is_pinned(argv, digest, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k4e.edges").write_text(emit_edge_list(K4_MINUS_EDGE))
    (tmp_path / "k4e-relabeled.edges").write_text(emit_edge_list(relabeled(K4_MINUS_EDGE, (3, 1, 4, 2))))
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


# sha256 over the files that --emit-signatures writes, each hashed as
# "name\ncontents" in sorted name order, at the commit that pinned them.
PINNED_SIGNATURE_FILES = [
    (["--group", "Z2", "--filter-by-theorem"], 128, "cbb1947ce03be9d44a6b4cc3dfd6d878e2f6ff21748203899c065de04a28e9e4"),
    (["--group", "Z3"], 1944, "a411962bf36c501751f06ed4bfcefee62a06f745f21ab258c5a1a3810fe93b26"),
]


@pytest.mark.parametrize(
    "args, count, digest", PINNED_SIGNATURE_FILES, ids=[" ".join(a) for a, _, _ in PINNED_SIGNATURE_FILES]
)
def test_emitted_signature_files_are_pinned(args, count, digest, tmp_path, monkeypatch):
    outdir = tmp_path / "sigs"
    with open(os.devnull, "w", encoding="utf-8") as null:
        monkeypatch.setattr(sys, "stdout", null)
        assert main(["search", "--fixture-pair", *args, "--emit-signatures", str(outdir)]) == 0
    names = sorted(p.name for p in outdir.iterdir())
    assert len(names) == count
    sha = hashlib.sha256()
    for name in names:
        sha.update(f"{name}\n{(outdir / name).read_text(encoding='utf-8')}".encode())
    assert sha.hexdigest() == digest


def test_search_command_builds_signatures_only_for_emitted_files(tmp_path, monkeypatch):
    # graphlifts.search is also the name of the search function, so the
    # module is looked up by its full name
    module = importlib.import_module("graphlifts.search")
    made = Counter()

    def counting(name, original):
        def wrapper(*args):
            made[name] += 1
            return original(*args)

        return wrapper

    monkeypatch.setattr(module, "SearchResult", counting("result", module.SearchResult))
    sig_from_rank = counting("signature", module.signature_from_rank)
    monkeypatch.setattr(module, "signature_from_rank", sig_from_rank)
    monkeypatch.setattr(cli, "signature_from_rank", sig_from_rank)
    with open(os.devnull, "w", encoding="utf-8") as null:
        monkeypatch.setattr(sys, "stdout", null)
        assert main(["search", "--fixture-pair", "--group", "Z3"]) == 0
        assert made == Counter()
        outdir = tmp_path / "sigs"
        argv = ["search", "--fixture-pair", "--group", "Z2", "--emit-signatures", str(outdir)]
        assert main(argv) == 0
    # one signature per file written, and still no SearchResult
    assert made == Counter(signature=128)


def test_search_exits_0_when_the_reader_closes_the_pipe():
    cmd = [sys.executable, "-m", "graphlifts.cli", "search", "--fixture-pair", "--group", "Z3"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert first.startswith(b"0 0 [")
    assert (proc.returncode, err) == (0, b"")


def _dressed(data: list[str]) -> str:
    """The data lines as a file with a comment-only first line, a trailing
    comment on each data line, a blank line after each, and CRLF line ends:
    data line k is line 2k + 2."""
    lines = ["# comment-only first line"]
    for k, line in enumerate(data):
        lines += [f"{line}  # note {k}", ""]
    return "\r\n".join(lines) + "\r\n"


def test_readers_agree_on_comments_blank_lines_and_crlf(tmp_path):
    path = tmp_path / "graph.txt"
    edges = ["3 2", "1 2", "2 3"]
    path.write_bytes(_dressed(edges).encode())
    p3 = from_edge_list(3, [(1, 2), (2, 3)])
    assert parse_edge_list(_dressed(edges)) == parse_edge_list("\n".join(edges)) == p3
    assert load_graph(str(path)) == p3

    path.write_bytes(_dressed([emit_graph6(fixtures.BASE_H)]).encode())
    assert load_graph(str(path)) == fixtures.BASE_H

    sig = ["group Z2", "1 2 : 1", "2 3 : 0"]
    assert parse_signature(_dressed(sig), p3) == parse_signature("\n".join(sig), p3)

    # the second data line is bad: each reader names line 4 of the file
    path.write_bytes(_dressed(["3 2", "1 x"]).encode())
    message = "line 4: expected integers, got '1 x  # note 1'"
    with pytest.raises(MalformedEdgeList, match=f"^{message}$"):
        parse_edge_list(_dressed(["3 2", "1 x"]))
    with pytest.raises(MalformedEdgeList, match=f"^{message}$"):
        load_graph(str(path))
    with pytest.raises(SignatureError, match="^line 4: expected two endpoints before ':'$"):
        parse_signature(_dressed(["group Z2", "1 x : 0"]), p3)
    # a graph6 line's offsets count from the start of its data
    path.write_bytes(_dressed(["A_x"]).encode())
    with pytest.raises(MalformedGraph6, match=r"^trailing data after 1 body bytes \(byte offset 2\)$"):
        load_graph(str(path))
