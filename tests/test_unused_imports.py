"""No module in src/macdlab imports a name it neither uses nor exports,
and no private function, class or method in src/macdlab goes unused.

stdlib only: each module is parsed with `ast`; a name counts as used
when it is read anywhere in the module (annotations included) or is
listed in the module's `__all__`. A private (`_name`, not `__dunder__`)
def counts as used when src code outside its own body names it, bare
or as an attribute.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "macdlab"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name the module's imports bind, with the line binding it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    kept = read | exported_names(tree)
    return [f"line {line}: {name}" for name, line in imported_names(tree).items()
            if name not in kept]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport sys\n"
              "from json import dumps, loads as load\nfrom re import compile\n"
              "__all__ = ['compile']\nprint(os.path.sep, load)\n")
    assert unused_imports(source) == ["line 3: sys", "line 4: dumps"]


def referenced_names(tree: ast.AST) -> Counter:
    """How often each name appears under `tree`, bare or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def private_defs(tree: ast.Module) -> list[ast.AST]:
    """The module's private module-level functions and classes, and the
    private methods of its classes."""
    nodes = list(tree.body)
    nodes += [node for cls in tree.body if isinstance(cls, ast.ClassDef) for node in cls.body]
    return [node for node in nodes
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")]


def unused_private_defs(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = sum((referenced_names(tree) for tree in trees.values()), Counter())
    return [f"{name} line {node.lineno}: {node.name}"
            for name, tree in trees.items() for node in private_defs(tree)
            if read[node.name] == referenced_names(node)[node.name]]


def test_no_unused_private_def():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unused_private_defs(sources) == []


def test_detects_unused_private_def():
    a = ("def _used():\n    pass\n\ndef _recursive():\n    return _recursive()\n\n"
         "class _Kept:\n    def _called(self):\n        return self._stale\n"
         "    def _stale(self):\n        pass\n    def __len__(self):\n        return 0\n\n"
         "class Public:\n    def _left(self):\n        pass\n")
    b = "from a import _used, _Kept\n_used()\n_Kept()._called()\n"
    assert unused_private_defs({"a.py": a, "b.py": b}) == [
        "a.py line 4: _recursive", "a.py line 16: _left"]
