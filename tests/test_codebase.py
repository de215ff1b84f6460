"""Static checks on the source tree: the names the benchmark harness reaches
into, the package's exports, imports that nothing uses, and top-level
definitions that nothing names."""

import ast
import importlib
import pathlib
from collections import Counter

import graphlifts
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


def test_every_export_resolves():
    # `from graphlifts import *` fails on a name in __all__ the package lacks
    assert [name for name in graphlifts.__all__ if not hasattr(graphlifts, name)] == []


def test_oracles_take_only_the_group_type_and_its_checks_from_the_library():
    # an oracle that borrowed the library's computation would check it
    # against itself
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    taken = {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("graphlifts")
        for alias in node.names
    }
    taken |= {
        (alias.name, None)
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.startswith("graphlifts")
    }
    assert taken == {
        ("graphlifts.algebra", "AbelianGroup"),
        ("graphlifts.algebra", "AlgebraError"),
        ("graphlifts.algebra", "require_member"),
    }


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
    # The package's __init__.py is exempt: its imports are its re-exports.
    # perfbench/ is left to the changes that revise the benchmark.
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    unused = {
        str(path.relative_to(ROOT)): names
        for path in sorted(paths)
        if path != PACKAGE / "__init__.py"
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


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the methods of those classes
    but the dunder ones, which Python calls itself: (qualified name, node)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def _unnamed_definitions(modules: dict[str, str], others: list[str]) -> list[str]:
    """Definitions of `modules` (file name -> source) named nowhere outside
    their own definition, in the modules or `others`."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    named = sum((_names(tree) for tree in trees.values()), Counter())
    named += sum((_names(ast.parse(source)) for source in others), Counter())
    return sorted(
        f"{name}:{qualified}"
        for name, tree in trees.items()
        for qualified, node in _definitions(tree)
        if named[node.name] == _names(node)[node.name]
    )


def _helpers_without_caller(root: pathlib.Path) -> list[str]:
    """Definitions of the package under `root` that no code calls: named
    nowhere in src/, scripts/ or perfbench/ outside their own definition.
    Neither tests nor __init__.py's re-exports count as callers, so a name
    that only a re-export keeps alive is flagged; __init__.py defines
    nothing."""
    package = root / "src" / "graphlifts"
    modules = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
    }
    others = [
        path.read_text(encoding="utf-8")
        for folder in ("src", "scripts", "perfbench")
        for path in sorted((root / folder).rglob("*.py"))
        if path.parent != package
    ]
    return _unnamed_definitions(modules, others)


def test_unnamed_definition_check_flags_a_helper_without_caller():
    module = "def used():\n    return 1\n\ndef recursive(n):\n    return recursive(n - 1)\n"
    assert _unnamed_definitions({"m.py": module}, ["print(used())\n"]) == ["m.py:recursive"]


def test_helper_check_flags_a_helper_that_only_tests_call(tmp_path):
    files = {
        "src/graphlifts/__init__.py": "from .m import exported, reexported_only\n",
        "src/graphlifts/m.py": (
            "def exported():\n    return Box().used()\n\n"
            "def test_only():\n    return 1\n\n"
            "def reexported_only():\n    return 1\n\n"
            "class Box:\n    def __eq__(self, other):\n        return True\n\n"
            "    def used(self):\n        return 1\n\n"
            "    def test_only_method(self):\n        return 1\n"
        ),
        "scripts/run.py": "from graphlifts import exported\nexported()\n",
        "tests/test_m.py": (
            "from graphlifts import reexported_only\nfrom graphlifts.m import Box, test_only\n"
            "test_only()\nreexported_only()\nBox().test_only_method()\n"
        ),
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    (tmp_path / "perfbench").mkdir()
    assert _helpers_without_caller(tmp_path) == [
        "m.py:Box.test_only_method", "m.py:reexported_only", "m.py:test_only",
    ]


# Definitions that no code calls, each kept for a reason; an entry that gains
# a caller, or whose definition goes, must leave the list.
UNCALLED = {
    "algebra.py:perm_matrix": "the permutation matrices of the S3 example, ROADMAP item 6",
    "search.py:SwitchingClasses.class_of": "acts on class keys in the orbits of ROADMAP item 3",
}


def test_no_helper_lacks_a_caller():
    assert _helpers_without_caller(ROOT) == sorted(UNCALLED)


# ROADMAP item 8's bound on the library: a change that needs more lines in
# src/ takes them from elsewhere in src/ first.
SRC_LINE_CAP = 2500


def test_src_stays_within_its_line_cap():
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in PACKAGE.glob("*.py"))
    assert lines <= SRC_LINE_CAP
