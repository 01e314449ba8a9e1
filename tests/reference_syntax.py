"""A reference for tests: free names and alpha-equality by recursion.

``_free``, ``_alpha``, ``_alpha_node`` and ``_bind``, with the
``free_names`` and ``alpha_equal`` that call them, are copied verbatim
from ``src/ftal/syntax.py`` as it stood at commit 06f987d. Each walks
``SCHEMA`` with its own copy of the scoping rules and recurses, so it
raises ``RecursionError`` on terms deeper than Python's recursion limit.
The package's versions read binding through ``syntax.subterms`` instead;
both must agree on every term shallow enough for these.

The one difference in data is ``Schema.attrs``: at that commit a binder
that scopes over the rest of a sequence (``unpack``, ``protect``) was
also an attribute, compared by name except at a sequence's head. The
schemas below put it back.
"""

from __future__ import annotations

import copy
from itertools import count

from ftal.syntax import (
    KIND_LOC,
    SCHEMA as _SCHEMA,
    Mk,
    SCons,
    Seq,
    Stk,
    Ty,
    _binders,
    _split,
)

SCHEMA = {cls: copy.copy(sc) for cls, sc in _SCHEMA.items()}
for _sc in SCHEMA.values():
    if _sc.tail:
        _sc.attrs += (_sc.bfield,)
    # Binds a name alpha-equality matches, not a nominal label.
    _sc.bound = _sc.scoped and _sc.bkind != KIND_LOC


def free_names(node) -> frozenset:
    """All free names of every kind, as (kind, name) pairs."""
    out: set = set()
    _free(node, frozenset(), out)
    return frozenset(out)


def _free(node, bound: frozenset, out: set) -> None:
    while type(node) is Seq:
        _free(node.head, bound, out)
        sc = SCHEMA[type(node.head)]
        if sc.tail:
            bound = bound.union(_binders(sc, node.head))
        node = node.tail
    while type(node) is SCons:
        _free(node.head, bound, out)
        node = node.tail
    sc = SCHEMA[type(node)]
    if sc.var is not None:
        if (sc.var, node.name) not in bound:
            out.add((sc.var, node.name))
        return
    inner = bound.union(_binders(sc, node)) if sc.scoped else bound
    for name, shape, scoped in sc.children:
        for child in _split(shape, getattr(node, name))[1]:
            _free(child, inner if scoped else bound, out)


def alpha_equal(a, b) -> bool:
    """Structural equality up to renaming of bound names.

    Heap labels are nominal: components must bind the same label set.
    Types, stacks and markers that are equal field by field are compared
    no further; they hold no instruction sequence, so that comparison
    does not recurse along a block, and a stack's spine is walked with a
    loop.
    """
    if isinstance(a, (Ty, Stk, Mk)):
        x, y = a, b
        while type(x) is SCons and type(y) is SCons and x.head == y.head:
            x, y = x.tail, y.tail
        if x == y:
            return True
    return _alpha(a, b, {}, {}, count(1))


def _bind(env_a, env_b, keys_a, keys_b, counter):
    if len(keys_a) != len(keys_b) or any(ka[0] != kb[0] for ka, kb in zip(keys_a, keys_b)):
        return None, None
    env_a, env_b = dict(env_a), dict(env_b)
    for ka, kb in zip(keys_a, keys_b):
        env_a[ka] = env_b[kb] = next(counter)
    return env_a, env_b


def _alpha(a, b, env_a, env_b, counter) -> bool:
    while True:
        if a is b and not env_a and not env_b:
            return True
        if type(a) is not type(b):
            return False
        if type(a) is SCons:
            if not _alpha(a.head, b.head, env_a, env_b, counter):
                return False
        elif type(a) is Seq:
            ha, hb = a.head, b.head
            sc = SCHEMA[type(ha)]
            if type(hb) is not type(ha) or not _alpha_node(ha, hb, sc, env_a, env_b, counter, sc.tail):
                return False
            if sc.tail:
                env_a, env_b = _bind(env_a, env_b, _binders(sc, ha), _binders(sc, hb), counter)
                if env_a is None:
                    return False
        else:
            return _alpha_node(a, b, SCHEMA[type(a)], env_a, env_b, counter)
        a, b = a.tail, b.tail


def _alpha_node(a, b, sc, env_a, env_b, counter, at_head=False) -> bool:
    if sc.var == KIND_LOC:
        return a.name == b.name
    if sc.var is not None:
        ia = env_a.get((sc.var, a.name))
        ib = env_b.get((sc.var, b.name))
        return ia == ib and (ia is not None or a.name == b.name)
    for name in sc.attrs:
        if getattr(a, name) != getattr(b, name) and not (at_head and name == sc.bfield):
            return False
    inner_a, inner_b = env_a, env_b
    if sc.bound:
        inner_a, inner_b = _bind(env_a, env_b, _binders(sc, a), _binders(sc, b), counter)
        if inner_a is None:
            return False
    for name, shape, scoped in sc.children:
        frame_a, nodes_a = _split(shape, getattr(a, name))
        frame_b, nodes_b = _split(shape, getattr(b, name))
        # Bound names are matched by _bind, not compared.
        if frame_a != frame_b and not (sc.bound and name == sc.bfield):
            return False
        ea, eb = (inner_a, inner_b) if scoped else (env_a, env_b)
        if not all(_alpha(x, y, ea, eb, counter) for x, y in zip(nodes_a, nodes_b)):
            return False
    return True
