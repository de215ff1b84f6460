import os
import re
import subprocess
import sys

import pytest

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
