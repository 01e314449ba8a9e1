"""Static checks on the package source, written with the standard
library's ``ast`` alone: every import is used, and every local variable
that a function assigns is also read."""

import ast
import pathlib

import pytest

import ftal

MODULES = sorted(pathlib.Path(ftal.__file__).parent.glob("*.py"))
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _loaded(node) -> set:
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _own_nodes(fn):
    """The nodes of a function body, not entering nested scopes."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def unused_imports(tree) -> list:
    used = _loaded(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    out.append(f"line {node.lineno}: {name}")
    return out


def unread_locals(tree) -> list:
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = _loaded(fn)
        outer = set()
        stores = []
        for node in _own_nodes(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                outer.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stores.append((node.lineno, node.id))
            elif isinstance(node, ast.ExceptHandler) and node.name:
                stores.append((node.lineno, node.name))
        out += [f"line {line}: {name} in {fn.name}" for line, name in stores
                if name not in read and name not in outer
                and not name.startswith("_")]
    return out


def test_the_checks_catch_what_they_name():
    tree = ast.parse("import os\nfrom x import y as z\n"
                     "def f(a):\n    b, c = a\n    for i in c: pass\n"
                     "    try: pass\n    except E as e: pass\n    return b\n")
    assert unused_imports(tree) == ["line 1: os", "line 2: z"]
    assert sorted(unread_locals(tree)) == ["line 5: i in f", "line 7: e in f"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(_parse(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_local_is_assigned_and_never_read(path):
    assert unread_locals(_parse(path)) == []
