"""Static checks on the source tree: the names the benchmark harness reaches
into, imports that nothing uses, and top-level definitions that nothing
names."""

import ast
import importlib
import pathlib
from collections import Counter

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


def _names(tree: ast.AST) -> Counter:
    """How often each identifier is named in a syntax tree: as a variable, an
    attribute, an imported name, or a string (getattr targets such as
    perfbench's TRACED entries)."""
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names[node.value] += 1
    return names


def _unnamed_definitions(modules: dict[str, str], others: list[str]) -> list[str]:
    """Top-level functions and classes of `modules` (file name -> source)
    named nowhere outside their own definition, in the modules or `others`."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    named = sum((_names(tree) for tree in trees.values()), Counter())
    named += sum((_names(ast.parse(source)) for source in others), Counter())
    return sorted(
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and named[node.name] == _names(node)[node.name]
    )


def test_unnamed_definition_check_flags_a_helper_without_caller():
    module = "def used():\n    return 1\n\ndef recursive(n):\n    return recursive(n - 1)\n"
    assert _unnamed_definitions({"m.py": module}, ["print(used())\n"]) == ["m.py:recursive"]


def test_every_top_level_definition_is_named_elsewhere():
    # __init__.py defines nothing; its re-exports count as names.
    modules = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    others = [
        path.read_text(encoding="utf-8")
        for folder in ("src", "tests", "scripts", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path.parent != PACKAGE or path.name == "__init__.py"
    ]
    assert _unnamed_definitions(modules, others) == []
