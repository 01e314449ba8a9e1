"""A reference for tests: free names, alpha-equality and substitution by
recursion.

``_free``, ``_alpha``, ``_alpha_node`` and ``_bind``, with the
``free_names`` and ``alpha_equal`` that call them, are copied verbatim
from ``src/ftal/syntax.py`` as it stood at commit 06f987d. ``_pass``,
``_enter``, ``_renamed``, ``_subst`` and ``_rebuild``, with the comment
above them, are copied verbatim from it as it stood at commit 4a06451,
and ``substitute`` calls them as that commit's did. Each walks
``SCHEMA`` with its own copy of the scoping rules and recurses, so it
raises ``RecursionError`` on terms deeper than Python's recursion limit.
The package's versions read binding through ``syntax.subterms``, and
rebuild from an explicit stack, instead. Both must agree on every term
shallow enough for these, and substitution must give equal (``==``)
results, since the names it freshens reach printed output.

The differences in data: at commit 06f987d a binder that scopes over the
rest of a sequence (``unpack``, ``protect``) was also an attribute,
compared by name except at a sequence's head, and the schemas below put
it back in ``Schema.attrs``, which substitution does not read. Those
commits read a node's binders with ``_binders(sc, node)``, which is
``syntax.binders(node)`` now.
"""

from __future__ import annotations

import copy
from itertools import count

from ftal.syntax import (
    HEAP,
    KIND_LOC,
    NODE,
    OPT,
    PAIRS,
    SCHEMA as _SCHEMA,
    STACK,
    TUPLE,
    _TYPE_KINDS,
    Mk,
    SCons,
    Seq,
    Stk,
    Ty,
    binders,
    _split,
    fresh_name,
    var_node,
)

SCHEMA = {cls: copy.copy(sc) for cls, sc in _SCHEMA.items()}
for _sc in SCHEMA.values():
    if _sc.tail:
        _sc.attrs += (_sc.bfield,)
    # Binds a name alpha-equality matches, not a nominal label.
    _sc.bound = _sc.scoped and _sc.bkind != KIND_LOC


def _binders(sc, node) -> list:
    """The (kind, name) pairs ``node`` binds; ``sc`` is its schema."""
    return binders(node)


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


def substitute(node, mapping: dict):
    """Capture-avoiding substitution of free names of any kind."""
    if not mapping:
        return node
    return _subst(node, (_pass(mapping),))


# One traversal applies a tuple of passes, each as if to the whole result
# of the one before. A pass is (mapping, the names free in its
# replacements, whether it maps a type-level kind). Freshening a binder
# puts a renaming pass for its scope ahead of the pass that needed it.


def _pass(mapping: dict) -> tuple:
    avoid: set = set()
    for v in mapping.values():
        avoid |= free_names(v)
    return mapping, frozenset(avoid), any(k in _TYPE_KINDS for k, _ in mapping)


def _enter(keys: list, passes: tuple, node):
    """The passes for the scope of ``node``'s binders, and the binders if
    freshened. A fresh name avoids every name free in ``node`` or named by
    a pass, so that it neither captures nor is substituted."""
    inner, renamed = [], False
    for mapping, avoid, typed in passes:
        live = mapping
        if any(k in mapping for k in keys):
            live = {k: v for k, v in mapping.items() if k not in keys}
            if not live:
                continue
        renaming, taken = {}, None
        for i, (kind, name) in enumerate(keys):
            if kind != KIND_LOC and (kind, name) in avoid:
                if taken is None:
                    taken = {n for _, n in free_names(node)} | {n for _, n in keys}
                    for m, a, _ in passes:
                        taken.update(n for _, n in m)
                        taken.update(n for _, n in a)
                keys[i] = (kind, fresh_name(name, taken))
                taken.add(keys[i][1])
                renaming[(kind, name)] = var_node(*keys[i])
        if renaming:
            inner.append(_pass(renaming))
            renamed = True
        inner.append((live, avoid, typed))
    return tuple(inner), keys if renamed else None


def _renamed(value, keys: list):
    """A binder field (a name, names, or Lam params) renamed to ``keys``."""
    if isinstance(value, str):
        return keys[0][1]
    return tuple(k[1] if isinstance(x, str) else (k[1], x[1]) for k, x in zip(keys, value))


def _subst(node, passes: tuple):
    if not passes:
        return node
    sc = SCHEMA[type(node)]
    if sc.var is not None:
        key = (sc.var, node.name)
        for i, (mapping, _, _) in enumerate(passes):
            if key in mapping:
                return _subst(mapping[key], passes[i + 1:])
        return node
    if not sc.children or (sc.typelevel and not any(p[2] for p in passes)):
        return node
    if sc.cls is Seq:
        heads = []
        while type(node) is Seq and passes:
            head, head_sc = node.head, SCHEMA[type(node.head)]
            if head_sc.tail:
                tail_passes, keys = _enter(_binders(head_sc, head), passes, node)
                head = _rebuild(head, head_sc, passes, passes, keys)
                passes = tail_passes
            else:
                head = _subst(head, passes)
            heads.append(head)
            node = node.tail
        node = _subst(node, passes)
        for head in reversed(heads):
            node = Seq(head, node)
        return node
    if not sc.scoped:
        return _rebuild(node, sc, passes, passes, None)
    return _rebuild(node, sc, passes, *_enter(_binders(sc, node), passes, node))


def _rebuild(node, sc: Schema, outer: tuple, inner: tuple, keys):
    args = []
    for name, shape, scoped in sc.fields:
        v = getattr(node, name)
        if keys is not None and name == sc.bfield:
            v = _renamed(v, keys)
        p = inner if scoped else outer
        if shape == NODE or (shape == OPT and v is not None):
            v = _subst(v, p)
        elif shape == TUPLE or shape == HEAP:
            v = tuple([_subst(x, p) for x in v])
        elif shape == PAIRS:
            v = tuple([(n, _subst(x, p)) for n, x in v])
        elif shape == STACK and v is not None:
            v = (tuple([_subst(x, p) for x in v[0]]), tuple([_subst(x, p) for x in v[1]]))
        args.append(v)
    return sc.cls(*args)
