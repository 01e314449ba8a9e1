"""Static checks on the package source, written with the standard
library's ``ast`` alone: every import is used, every local variable
that a function assigns is also read, every attribute that a class
assigns on ``self`` and every name that a module binds at its top
level is read somewhere in the repository, no module imports or reads
a name that another ftal module keeps private, and no function or
method recurses but those listed in ``RECURSIVE``.  None in
``syntax.py`` or ``pretty.py`` does, so that every walk over syntax
and the printer handle terms deeper than Python's recursion limit."""

import ast
import functools
import pathlib

import pytest

import ftal

MODULES = sorted(pathlib.Path(ftal.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parents[1]
# The code that may read an attribute of an ftal object.
READERS = [path for top in ("src", "tests", "perfbench")
           for path in sorted((ROOT / top).rglob("*.py"))]
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


def attribute_reads(tree) -> set:
    """The attribute names that ``tree`` may read: each ``x.name`` that
    is not a store, each augmented assignment's target, and each string
    constant (for ``getattr`` and ``monkeypatch.setattr`` by name)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            out.add(node.attr)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
            out.add(node.target.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


@functools.cache
def _read_anywhere() -> frozenset:
    return frozenset().union(*(attribute_reads(_parse(path)) for path in READERS))


def unread_attributes(tree, read) -> list:
    """Attributes that a class in ``tree`` assigns on ``self`` and whose
    names are not in ``read``."""
    out = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                    and isinstance(node.value, ast.Name) and node.value.id == "self" \
                    and node.attr not in read:
                out.append(f"line {node.lineno}: {cls.name}.{node.attr}")
    return out


def module_names(tree) -> list:
    """The names that ``tree`` binds at its top level, dunders aside:
    its functions, classes and assigned names, each with its line."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(n.lineno, n.id) for target in targets for n in ast.walk(target)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    return [(line, name) for line, name in out
            if not (name.startswith("__") and name.endswith("__"))]


@functools.cache
def _names_read_anywhere() -> frozenset:
    return frozenset().union(*(_loaded(tree) | attribute_reads(tree)
                               for tree in map(_parse, READERS)))


def unread_module_names(tree, read) -> list:
    """Module-level names of ``tree`` that are not in ``read``."""
    return [f"line {line}: {name}" for line, name in module_names(tree)
            if name not in read]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _root(node):
    """The name a chain of attribute reads starts from, or None."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def private_reach(tree) -> list:
    """Private names of another ftal module that this module imports
    (``from .m import _f``) or reads (``m._f`` or ``getattr(m, "_f")``,
    where ``m`` is bound to an ftal module)."""
    modules, out = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name.split(".")[0]
                           for alias in node.names
                           if alias.name.split(".")[0] == "ftal")
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "ftal"):
            package = node.module in (None, "ftal")
            for alias in node.names:
                if package:
                    modules.add(alias.asname or alias.name)
                if _private(alias.name):
                    out.append(f"line {node.lineno}: {alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr) \
                and _root(node.value) in modules:
            out.append(f"line {node.lineno}: {node.attr}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "getattr" and len(node.args) > 1 \
                and _root(node.args[0]) in modules \
                and isinstance(node.args[1], ast.Constant) \
                and isinstance(node.args[1].value, str) \
                and _private(node.args[1].value):
            out.append(f"line {node.lineno}: {node.args[1].value}")
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


def test_the_attribute_check_catches_what_it_names():
    tree = ast.parse("class C:\n    def __init__(self):\n"
                     "        self.a = self.b = 0\n        self.c, self.d = 1, 2\n"
                     "    def f(self, other):\n        self.d += 1\n"
                     "        other.a = getattr(self, 'c')\n        return other.b\n")
    # b is read through another object, c by name and d by its update;
    # a is only ever stored.
    assert unread_attributes(tree, attribute_reads(tree)) == ["line 3: C.a"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_attribute_is_assigned_and_never_read(path):
    assert unread_attributes(_parse(path), _read_anywhere()) == []


def test_the_module_name_check_catches_what_it_names():
    tree = ast.parse("import os\nA, (B, C) = 1, (2, 3)\nD: int = 4\n__all__ = []\n"
                     "def f():\n    return A + g.B\n"
                     "class K:\n    pass\n"
                     "E = getattr(os, 'C')\nE[0] = D\n")
    # A is read by name, B as an attribute, C by a string, D and E by
    # their uses; f and K never are, and dunders and imports are skipped.
    assert unread_module_names(tree, _loaded(tree) | attribute_reads(tree)) == [
        "line 5: f", "line 7: K"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_level_name_is_bound_and_never_read(path):
    assert unread_module_names(_parse(path), _names_read_anywhere()) == []


def test_the_private_name_check_catches_what_it_names():
    tree = ast.parse(
        "import os\nimport ftal.syntax\nfrom . import machine as M, pretty\n"
        "from .boundary import _pick, translate_type\n"
        "from ftal.syntax import _free\n"
        "def f(self):\n"
        "    M._Clo; pretty.tm; ftal.syntax._subst; os._exit\n"
        "    self._x; M.__name__; getattr(pretty, '_short')\n")
    assert sorted(private_reach(tree)) == [
        "line 4: _pick", "line 5: _free", "line 7: _Clo", "line 7: _subst",
        "line 8: _short"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_reaches_into_another_modules_private_names(path):
    assert private_reach(_parse(path)) == []


def recursive_functions(tree) -> list:
    """The functions of ``tree`` that can reach themselves: its
    module-level functions, and its classes' methods, named
    ``Class.method``.  A function reaches the module-level functions and
    tables whose names it reads, whether to call them or to pass them on,
    and the methods it reads as ``self.method`` in its own class or as
    ``Class.method``.  A module-level table reaches what its value reads,
    so a method that hands a table of readers to another reaches each
    reader; a function that the value calls to build the table runs once,
    when the module is imported, and is not reached through it."""
    functions, tables = {}, {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[node.name] = (node, None)
        elif isinstance(node, ast.ClassDef):
            functions.update((f"{node.name}.{fn.name}", (fn, node.name)) for fn in node.body
                             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for n in (n for target in targets for n in ast.walk(target)):
                if isinstance(n, ast.Name):
                    tables.setdefault(n.id, []).append(node.value)
    names = functions.keys() | tables.keys()

    def reads(node, cls, skip=frozenset()) -> set:
        methods = {f"{cls if n.value.id == 'self' else n.value.id}.{n.attr}"
                   for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)}
        return ((_loaded(node) - skip) | methods) & names

    edges = {name: reads(*functions[name]) for name in functions}
    for name, values in tables.items():
        edges[name] = set().union(*(reads(v, None, {
            n.func.id for n in ast.walk(v)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}) for v in values))
    out = []
    for name in functions:
        seen, todo = set(), list(edges[name])
        while todo:
            callee = todo.pop()
            if callee not in seen:
                seen.add(callee)
                todo.extend(edges[callee])
        if name in seen:
            out.append(name)
    return sorted(out)


def test_the_recursion_check_catches_what_it_names():
    tree = ast.parse("def f(n):\n    return g(n)\n"
                     "def g(n):\n    return f(n - 1) if n else 0\n"
                     "def h(xs):\n    return list(map(h, xs))\n"
                     "def k(n):\n    return f(n)\n"
                     "class P:\n"
                     "    def a(self):\n        return self.form(READERS['b'])\n"
                     "    def b(self):\n        return self.a()\n"
                     "    def c(self):\n        return self.b()\n"
                     "    def form(self, read):\n        return read(self)\n"
                     "    def d(self, p):\n        return p.d(self)\n"
                     "READERS = {'b': P.b}\n"
                     "def build(table):\n        return {**table, **EXTRA}\n"
                     "EXTRA = {'x': lambda p: BUILT}\n"
                     "BUILT = build({'y': P.d})\n")
    # k reaches the cycle of f and g, but not itself; P.a hands P.b on
    # through the READERS table, and P.c reaches that cycle without being
    # in it. A method read on another object, as in P.d, is not followed,
    # and build, called once to make BUILT, is not reached through it.
    assert recursive_functions(tree) == ["P.a", "P.b", "f", "g", "h"]


# The functions and methods that recurse, by module; no other does.
RECURSIVE = {
    "boundary": ["export_value", "import_value", "translate_type"],
    "machine": ["_read_back", "_value"],
    "parser": ["Parser.app_expr", "Parser.arith", "Parser.arrow_or_paren_type",
               "Parser.atom_expr", "Parser.chi_entry", "Parser.component", "Parser.expr",
               "Parser.heap_binding", "Parser.iseq", "Parser.lam", "Parser.marker",
               "Parser.mult", "Parser.phi", "Parser.prefix_expr", "Parser.prefixes",
               "Parser.stack", "Parser.type_", "Parser.u_value"],
    "typecheck": ["check_component", "check_expression", "check_heap_fragment",
                  "check_instruction_sequence", "check_small_value", "wf"],
}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_the_listed_functions_recurse(path):
    """A ratchet: a new recursion fails here, and removing one means
    shrinking ``RECURSIVE``, which lists the walks that Python's recursion
    limit still bounds.  The check follows module-level names, methods read
    through ``self`` or their class, and the readers in module-level
    tables; a method read on another object is out of its reach."""
    assert recursive_functions(_parse(path)) == RECURSIVE.get(path.stem, [])
