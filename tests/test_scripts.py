import importlib
import os
import re
import shlex
import subprocess
import sys

import pytest

from graphlifts import cli, fixtures
from graphlifts.algebra import AbelianGroup, parse_group
from graphlifts.graphs import emit_edge_list
from graphlifts.lifts import emit_signature
from graphlifts.search import SwitchingClasses, conditions_hold, signature_count, signature_from_rank
from graphlifts.spectra import lift_charpoly

from oracles import ROOT, load_condition_sweep


def _run_script(script, args):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize(
    "script,args,code",
    [
        ("condition_sweep.py", ["--group", "Z2xZ2"], 0),
        ("decomposition_trials.py", ["--trials", "10", "--max-n", "5"], 0),
        ("condition_sweep.py", ["--group", "S3"], 2),
        ("condition_sweep.py", ["--group", "Q8"], 2),
        ("decomposition_trials.py", ["--max-n", "1"], 2),
        ("decomposition_trials.py", ["--trials", "-3"], 2),
        ("condition_sweep.py", ["--group", "Z61"], 2),
        ("condition_sweep.py", ["--group", "Z1000000"], 2),
        ("decomposition_trials.py", ["--max-n", "8"], 2),
    ],
)
def test_script_runs_clean(script, args, code):
    """Each script exits with the expected code; a bad argument is an
    `error:` line on stderr, never a traceback."""
    proc = _run_script(script, args)
    assert proc.returncode == code, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert ("error: " in proc.stderr) == (code == 2)


def test_condition_sweep_prints_z2_then_the_group(capsys):
    """Z2's four count lines, then Z2xZ2's: only 4 of its 10 cospectral
    class pairs pass the conditions, and all 4 involutions satisfy the
    constant-lift lemma."""
    assert load_condition_sweep().main(["--group", "Z2xZ2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "group Z2: 16384 pairs (exhaustive)",
        "  condition-passing: 2048",
        "  cospectral:        2048",
        "  violations:        0",
        "  class pairs:       4 x 4, 2 cospectral, 2 condition-passing",
        "  constant-lift lemma holds for 2 of 2 involutions",
        "group Z2xZ2: 268435456 pairs (exhaustive)",
        "  condition-passing: 4194304",
        "  cospectral:        10485760",
        "  violations:        0",
        "  class pairs:       16 x 16, 10 cospectral, 4 condition-passing",
        "  constant-lift lemma holds for 4 of 4 involutions",
    ]


def test_class_sweep_matches_per_signature_brute_force_over_z2():
    """The class-pair counts, weighted by class sizes, equal a sweep over
    all 128 x 128 signature pairs."""
    gr = AbelianGroup((2,))
    g, h = fixtures.BASE_G, fixtures.BASE_H
    sigs_g = [signature_from_rank(g, gr, r) for r in range(signature_count(g, gr))]
    sigs_h = [signature_from_rank(h, gr, r) for r in range(signature_count(h, gr))]
    polys_g = [tuple(lift_charpoly(g, s)) for s in sigs_g]
    polys_h = [tuple(lift_charpoly(h, s)) for s in sigs_h]
    passing = cospectral_count = violations = 0
    for sg, pg in zip(sigs_g, polys_g):
        for sh, ph in zip(sigs_h, polys_h):
            cond = conditions_hold(sg, sh)
            cosp = pg == ph
            passing += cond
            cospectral_count += cosp
            violations += cond and not cosp
    assert (passing, cospectral_count, violations) == (2048, 2048, 0)

    (count_g, size_g), (count_h, size_h), cospectral, passing_pairs = (
        load_condition_sweep().sweep_class_pairs(gr)
    )
    assert count_g * size_g == len(sigs_g) and count_h * size_h == len(sigs_h)
    weight = size_g * size_h
    assert len(passing_pairs) * weight == passing
    assert len(cospectral) * weight == cospectral_count
    assert len(passing_pairs - cospectral) * weight == violations


def test_class_sweep_takes_one_charpoly_per_class(monkeypatch):
    """Over Z3 the sweep reads the class join: at most one lift charpoly per
    class, 8 of the 18 classes sharing a walk key with the other side, and
    the sets of an all-pairs join of the representatives' charpolys."""
    module = importlib.import_module("graphlifts.search")
    calls = []

    def counting(base, s):
        calls.append(base)
        return lift_charpoly(base, s)

    monkeypatch.setattr(module, "lift_charpoly", counting)
    gr = AbelianGroup((3,))
    shape_g, shape_h, cospectral, passing = load_condition_sweep().sweep_class_pairs(gr)
    assert len(calls) == 8 and calls.count(fixtures.BASE_G) == 3
    assert shape_g == shape_h == (9, 243)
    reps_g, reps_h = (
        [classes.representative(c) for c in range(classes.count)]
        for classes in (SwitchingClasses(base, gr) for base in (fixtures.BASE_G, fixtures.BASE_H))
    )
    polys_h = [lift_charpoly(fixtures.BASE_H, sh) for sh in reps_h]
    pairs = [
        (cg, ch, lift_charpoly(fixtures.BASE_G, sg) == ph, conditions_hold(sg, sh))
        for cg, sg in enumerate(reps_g)
        for ch, (sh, ph) in enumerate(zip(reps_h, polys_h))
    ]
    assert cospectral == {(cg, ch) for cg, ch, cosp, _ in pairs if cosp}
    assert passing == {(cg, ch) for cg, ch, _, cond in pairs if cond}


@pytest.mark.parametrize(
    "group,classes,cospectral,passing",
    [
        ("Z2", 4, 2, 2),
        ("Z3", 9, 9, 9),
        ("Z4", 16, 10, 10),
        ("Z2xZ2", 16, 10, 4),
        ("Z5", 25, 33, 17),
        ("Z2xZ4", 64, 66, 20),
    ],
)
def test_class_pair_counts(group, classes, cospectral, passing):
    """Class counts, cospectral and condition-passing class pairs of the
    bundled pair, as in ROADMAP item 1's table; every passing pair is
    cospectral."""
    shape_g, shape_h, cospectral_pairs, passing_pairs = (
        load_condition_sweep().sweep_class_pairs(parse_group(group))
    )
    assert shape_g[0] == shape_h[0] == classes
    assert (len(cospectral_pairs), len(passing_pairs)) == (cospectral, passing)
    assert passing_pairs <= cospectral_pairs


def test_readme_script_lines_run():
    """README's script command lines run as written and exit 0, so the docs
    cannot drift from the scripts' options."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        lines = re.findall(r"^python3 scripts/(\S+) (.*)$", fh.read(), flags=re.M)
    assert sorted(script for script, _ in lines) == ["condition_sweep.py", "decomposition_trials.py"]
    for script, args in lines:
        proc = _run_script(script, shlex.split(args))
        assert proc.returncode == 0, proc.stdout + proc.stderr


def test_readme_library_snippet_runs(capsys):
    """README's one python block runs as written, so the library docs cannot
    drift from the library."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), flags=re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith(" cospectral pairs")
    assert len(out) == 2


def test_readme_short_session_reproduces(tmp_path, monkeypatch, capsys):
    """README's short session: each `cat` shows a file the library writes,
    and each `graphlifts` command prints the lines shown under it."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        block = re.search(r"^```\n(\$ cat base_g\.edges\n.*?)^```$", fh.read(), flags=re.S | re.M)
    assert block is not None
    files = {
        "base_g.edges": emit_edge_list(fixtures.BASE_G),
        "sig.txt": emit_signature(signature_from_rank(fixtures.BASE_G, AbelianGroup((2,)), 85)),
    }
    monkeypatch.chdir(tmp_path)
    commands = 0
    for step in block.group(1).split("\n$ "):
        command, _, shown = step.removeprefix("$ ").partition("\n")
        program, *argv = shlex.split(command)
        shown = shown.rstrip("\n") + "\n"
        if program == "cat":
            assert shown == files[argv[0]]
            (tmp_path / argv[0]).write_text(shown, encoding="utf-8")
            continue
        assert program == "graphlifts"
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == shown
        commands += 1
    assert commands == 3
