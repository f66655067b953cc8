"""No module under src/ imports a name it never uses, or an
underscore-prefixed (module-private) name from another package module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no other code reads. A name
    listed in `__all__` counts as read; `__future__` imports bind nothing."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in read]


def private_imports(source: str) -> list[str]:
    """Underscore-prefixed names the module imports from a module of the
    package, by a relative or a `textquest` import."""
    return [f"{alias.name} (line {node.lineno})"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "textquest")
            for alias in node.names if alias.name.startswith("_")]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == \
        ["os (line 1)"]
    assert unused_imports("from a import b as c\n__all__ = ['c']\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_a_private_import():
    assert private_imports("from .a import b, _c\n"
                           "from ..d import (_e as f)\n"
                           "from textquest.g import _h\n") == \
        ["_c (line 1)", "_e (line 2)", "_h (line 3)"]
    assert private_imports("from os import _exit\nimport _thread\n"
                           "from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_private_imports(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []
