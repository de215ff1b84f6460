import os
import re
import shlex
import subprocess
import sys

import pytest

from graphlifts import cli, fixtures
from graphlifts.algebra import AbelianGroup
from graphlifts.graphs import emit_edge_list
from graphlifts.lifts import emit_signature
from graphlifts.search import signature_from_rank

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "script,args",
    [
        ("condition_sweep.py", ["--group", "Z2"]),
        ("decomposition_trials.py", ["--trials", "10", "--max-n", "5"]),
    ],
)
def test_script_runs_clean(script, args):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
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
