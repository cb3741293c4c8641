"""Source hygiene, by AST scans of src/rootneg/*.py.

Every name a module imports is used in that module.  The package
``__init__.py`` is exempt, because its imports are the package's re-exports.
Names used only inside string annotations count as used.

Every top-level public function and class, and every public method of a
top-level class, is referenced somewhere in the program (src/, demos/,
perfbench/) or in the README, other than at its own definition: as a name,
an attribute, or an imported name (which covers the package's re-exports).

Every top-level private function and class is referenced in src/ outside its
own definition; tests do not count, so a helper left without a caller in the
program is found.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rootneg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line, for every import statement in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    return used


def test_modules_are_found():
    assert {p.stem for p in MODULES} >= {"rootsys", "params", "negativity", "simplex"}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = sorted(
        f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used
    )
    assert not unused, f"{path.name} imports names it does not use: {', '.join(unused)}"


def test_scan_flags_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Optional, Union\nx: Optional[int] = 1\n")
    assert set(_imported(tree)) - _used(tree) == {"os", "Union"}
    quoted = ast.parse("from typing import Union\ndef f() -> 'Union[int, str]': pass\n")
    assert set(_imported(quoted)) <= _used(quoted)


def _public(nodes, kinds):
    return [n for n in nodes if isinstance(n, kinds) and not n.name.startswith("_")]


def _public_defs(tree: ast.Module) -> dict[str, int]:
    """Top-level public function and class name, and Class.method for the
    public methods of top-level classes -> line."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs = {node.name: node.lineno for node in _public(tree.body, functions + (ast.ClassDef,))}
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            defs.update((f"{cls.name}.{m.name}", m.lineno) for m in _public(cls.body, functions))
    return defs


def _referenced(tree: ast.Module) -> set[str]:
    """Names used or imported, and ".attr" for every attribute read."""
    names = _used(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add("." + node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


@functools.cache
def _program_references() -> frozenset[str]:
    words = re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8"))
    names = set(words) | {"." + w for w in words}
    for folder in ("src", "demos", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            names |= _referenced(ast.parse(path.read_text(encoding="utf-8")))
    return frozenset(names)


def _unreferenced(tree: ast.Module, references) -> list[str]:
    """A function or class counts as referenced by its name or an attribute
    of that name; a method only by an attribute, since nothing calls a
    method by its bare name."""
    return sorted(
        f"{name} (line {line})" for name, line in _public_defs(tree).items()
        if "." + name.rpartition(".")[2] not in references
        and ("." in name or name not in references)
    )


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unreferenced_public_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unreferenced = _unreferenced(tree, _program_references())
    assert not unreferenced, (
        f"{path.name} defines public names that nothing references: {', '.join(unreferenced)}"
    )


def test_scan_flags_an_unreferenced_def():
    source = (SRC / "linalg.py").read_text(encoding="utf-8")
    planted = ast.parse(source + "\n\ndef planted_helper():\n    return 1\n\n\nclass _Private:\n    pass\n")
    line = len(source.splitlines()) + 3
    assert _unreferenced(planted, _program_references()) == [f"planted_helper (line {line})"]
    caller = ast.parse("from m import used\nKept()\nx.attr()\n")
    module = ast.parse("def used(): pass\ndef unused(): pass\nclass Kept: pass\ndef attr(): pass\n")
    assert _unreferenced(module, _referenced(caller)) == ["unused (line 2)"]


def test_scan_flags_an_unreferenced_method():
    source = (SRC / "rootsys.py").read_text(encoding="utf-8")
    planted = ast.parse(source.replace(
        "    def is_real(self) -> bool:",
        "    def planted_method(self):\n        return 1\n\n"
        "    def _private_method(self):\n        return 2\n\n"
        "    def is_real(self) -> bool:",
    ))
    line = next(i for i, text in enumerate(source.splitlines(), 1) if "def is_real(" in text)
    assert _unreferenced(planted, _program_references()) == [f"Parameter.planted_method (line {line})"]
    caller = ast.parse("k = Kept()\nk.used()\n")
    module = ast.parse("class Kept:\n    def used(self): pass\n    def unused(self): pass\n")
    assert _unreferenced(module, _referenced(caller)) == ["Kept.unused (line 3)"]


def _top_level_references(trees) -> list[tuple[ast.stmt, set[str]]]:
    """(statement, names it references) for every top-level statement."""
    return [(node, _referenced(node)) for tree in trees for node in tree.body]


def _unreferenced_private(tree: ast.Module, statements) -> list[str]:
    """Top-level private functions and classes of tree that no statement
    other than their own definition references."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    private = [node for node in tree.body if isinstance(node, kinds)
               and node.name.startswith("_") and not node.name.endswith("__")]
    return sorted(
        f"{node.name} (line {node.lineno})" for node in private
        if not any(other is not node and {node.name, "." + node.name} & names
                   for other, names in statements)
    )


@functools.cache
def _src_trees() -> dict[Path, ast.Module]:
    paths = sorted(SRC.glob("*.py"))
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_private_helper_without_a_caller(path):
    trees = _src_trees()
    unreferenced = _unreferenced_private(trees[path], _top_level_references(trees.values()))
    assert not unreferenced, (
        f"{path.name} defines private names that nothing else in src/ references: "
        f"{', '.join(unreferenced)}"
    )


def test_scan_flags_a_private_helper_without_a_caller():
    source = (SRC / "subsystems.py").read_text(encoding="utf-8")
    planted = ast.parse(source + "\n\ndef _planted(x):\n    return _planted(x)\n")
    line = len(source.splitlines()) + 3
    statements = _top_level_references([planted])
    assert _unreferenced_private(planted, statements) == [f"_planted (line {line})"]
    module = ast.parse("def _used(): pass\ndef _unused(): pass\nclass _Kept: pass\n"
                       "def __getattr__(name): pass\n")
    caller = ast.parse("import m\n_used()\nx: '_Kept'\n")
    assert _unreferenced_private(module, _top_level_references([module, caller])) \
        == ["_unused (line 2)"]
