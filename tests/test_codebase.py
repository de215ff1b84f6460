"""Static checks on the source tree: the names the benchmark harness reaches
into, and imports that nothing uses."""

import ast
import importlib
import pathlib

import graphlifts.cli as cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "graphlifts"


def _traced_entries() -> list[tuple[str, str, str]]:
    """TRACED from perfbench/tracing.py, read from its syntax tree so that the
    harness is neither imported nor written to."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TRACED list")


def test_benchmark_entry_points_resolve():
    entries = _traced_entries()
    assert entries
    for _, module_name, attr in entries:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)
    for attr in ("fixture_set", "load_graph", "load_signature", "main"):
        assert callable(getattr(cli, attr)), attr


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_unused_import_check_flags_an_unused_name():
    assert _unused_imports("import os\nfrom sys import argv, path\nprint(path)\n") == ["argv", "os"]


def test_no_unused_imports():
    # __init__.py is exempt: its imports are the package's re-exports.
    unused = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        and (names := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}
