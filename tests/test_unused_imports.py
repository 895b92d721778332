"""No module in src/macdlab imports a name it neither uses nor exports.

stdlib only: each module is parsed with `ast`; a name counts as used
when it is read anywhere in the module (annotations included) or is
listed in the module's `__all__`.
"""

import ast
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
