"""Deterministic printer for every syntax class.

Output reparses to an alpha-equal tree. Components render multi-line;
everything else renders inline. Binops are always parenthesized and prefix
forms wrap non-atomic operands, so no precedence table is needed on the
reading side beyond the grammar itself.

Every node is written by one loop, ``_fill``, over a stack of pending
pieces, each a string or a node, so nothing here recurses and a node
prints however deep it nests. A node's pieces come from its form: the
template of its class in ``syntax.T_SYNTAX``, ``TY_SYNTAX`` or
``TM_SYNTAX``, which the parser reads too, with each slot holding that
field of the node; a code block's header fills in ``CodeT``'s. Only a
stack, an instantiation chain, written ``u[w1, w2]``, and a component's
line layout are written by hand.

``int_str``, ``word_str`` and ``value_str`` render run-time values for
outcomes, trace records and equivalence reports.
"""

from __future__ import annotations

from operator import attrgetter

from .syntax import (
    NODE, SCHEMA, T_SYNTAX, TM_SYNTAX, TY_SYNTAX, App, Binop, Boundary,
    CodeBlock, CodeT, Component, Fold, If0, Inst, Instr, IntVal, Lam, Let,
    Loc, Node, Pack, Program, Reg, SCons, Seq, SeqE, SNil, SVar, Tm,
    TupleVal, UnitVal, Var, template_parts,
)


def tm(node: Node) -> str:
    """A node's text: a type, stack, marker, term, instruction,
    terminator, component or program."""
    return _fill(node, _FORMS)


# One printer for every node; each name says what its caller holds.
ty = stk = mk = instr = program = tm


def _fill(node: Node, forms: dict) -> str:
    """node's text, written by one loop over a stack of pending pieces: a
    string is written out, and a node is replaced by the pieces its form
    in forms gives."""
    out, todo = [], [node]
    while todo:
        piece = todo.pop()
        if type(piece) is str:
            out.append(piece)
            continue
        form = forms.get(type(piece))
        if form is None:
            raise TypeError(f"no form for {piece!r}")
        pieces = form(piece)
        pieces.reverse()
        todo += pieces
    return "".join(out)


def _form(cls: type, template: str, writers: dict):
    """The form of a template for nodes of cls: each literal, then the
    pieces of each slot, as writers has them for its field; a field that
    holds one node is that node, and any other is written as str() gives
    it, joined to the literal before it."""
    parts, end = template_parts(template)
    nodes = {name for name, shape, _ in SCHEMA[cls].fields if shape == NODE}
    slots = tuple((lit, attrgetter(f), writers.get(f) or (
        (lambda v: (v,)) if f in nodes else None)) for lit, f in parts)

    def pieces(node) -> list:
        out = []
        for lit, get, write in slots:
            if write is None:
                out.append(lit + str(get(node)))
                continue
            if lit:
                out.append(lit)
            out += write(get(node))
        if end:
            out.append(end)
        return out
    return pieces


def _joined(items) -> list:
    return [p for x in items for p in (", ", x)][1:]


def _annotated(pairs) -> list:
    """(name, type) pairs, as register files and parameters are written."""
    return [p for x, t in pairs for p in (", ", f"{x}: ", t)][1:]


def _prefix(ts) -> list:
    """A stack prefix, as protect and stack arrows write it: ``t :: .``."""
    return [p for t in ts for p in (t, " :: ")] + ["."]


def _bare(*classes):
    """A term slot that parenthesizes every term but those of classes."""
    return lambda e: (e,) if isinstance(e, classes) else ("(", e, ")")


def _wrapped(*classes):
    """A term slot that parenthesizes the terms of classes."""
    return lambda e: ("(", e, ")") if isinstance(e, classes) else (e,)


def _inst(e: Inst) -> list:
    """An instantiation chain u[w1][w2], written u[w1, w2]."""
    ws = []
    while type(e) is Inst:
        ws.append(e.omega)
        e = e.val
    base = [e] if isinstance(e, (Var, Reg, Loc)) else ["(", e, ")"]
    return [*base, "[", *_joined(reversed(ws)), "]"]


def _lines(s, pad: str) -> list:
    """A sequence, one instruction a line, each line after pad."""
    out = []
    while isinstance(s, Seq):
        out += (pad, s.head, ";\n")
        s = s.tail
    if isinstance(s, Instr) or type(s) not in T_SYNTAX:
        raise TypeError(f"sequence does not end in a terminator: {s!r}")
    out += (pad, s)
    return out


def _component(c: Component) -> list:
    """A component's lines: its body, then each heap binding after
    ``where``, a code block's body under its header."""
    out = ["(\n", *_lines(c.body, "  ")]
    for k, hb in enumerate(c.heap):
        out += (",\n    " if k else ",\n  where\n    ", hb.label, " -> ")
        v = hb.value
        if isinstance(v, CodeBlock):
            out += (*_HEADER(v), ".\n", *_lines(v.body, "      "))
        else:
            out += (hb.nu, " <", *_joined(v.items), ">")
    out.append("\n)")
    return out


# How a slot of a T_SYNTAX or TM_SYNTAX template is written, by its field
# name, where that is not the node it holds or str() of it. A prefix
# form's operand is a single atom; an arithmetic operand, or the first
# term of a sequence, must not extend to the right; a one-tuple's item is
# followed by a comma; a lambda's stack slot is its prefixes or nothing.
_TM_WRITERS = {
    "phi": _prefix, "params": _annotated,
    "stack": lambda s: () if s is None else (
        "[", *_prefix(s[0]), " => ", *_prefix(s[1]), "] "),
    **dict.fromkeys(("cond", "then", "els", "e"),
                    _bare(Var, IntVal, UnitVal, TupleVal, Reg, Loc, Boundary, Binop)),
    **dict.fromkeys(("left", "right"), _wrapped(Lam, Let, SeqE, If0)),
    "fn": _bare(Var, App, Boundary, Inst, Loc, Reg), "args": _joined,
    "items": lambda es: (es[0], ",") if len(es) == 1 else _joined(es),
    "first": _wrapped(Let, Lam, SeqE)}
_LET_WRITERS = {**_TM_WRITERS, "ann": lambda t: () if t is None else (" : ", t)}
_TY_WRITERS = {"params": _joined, "items": _joined, "binders": _joined,
               "chi": _annotated, "phi_in": _prefix, "phi_out": _prefix}
# A code block's header is its code type: CodeBlock has CodeT's fields.
_HEADER = _form(CodeT, TY_SYNTAX[CodeT], _TY_WRITERS)

_FORMS = {
    **{cls: _form(cls, t, _TM_WRITERS) for cls, t in T_SYNTAX.items()},
    **{cls: _form(cls, t, _TY_WRITERS) for cls, t in TY_SYNTAX.items()},
    **{cls: _form(cls, t, _LET_WRITERS if cls is Let else _TM_WRITERS)
       for cls, t in TM_SYNTAX.items()},
    SCons: lambda s: [s.head, " :: ", s.tail], SNil: lambda s: ["*"],
    SVar: lambda s: [s.name], Inst: _inst, Component: _component,
    Program: lambda p: ["entry ", p.entry, "\n", p.main, "\n"],
}


# Values, as run output, trace records and eq rows show them.

# Computed once: CPython folds no power this large at compile time.
_HUGE = 10 ** 40


def int_str(n: int) -> str:
    """Decimal rendering that stays cheap for enormous integers."""
    if -_HUGE < n < _HUGE:
        return str(n)
    return f"<int ~10^{int(n.bit_length() * 0.30103)}>"


def word_str(w) -> str:
    """A short rendering of a machine word, as registers and stacks hold
    it: an integer, unit or label inside its fold, pack and instantiation
    shells, a chain of instantiations written once as ``[..]``."""
    if isinstance(w, IntVal):
        return int_str(w.n)
    if isinstance(w, Loc):
        return w.name
    opened, closed = [], []
    while isinstance(w, (Inst, Fold, Pack)):
        if isinstance(w, Inst):
            while isinstance(w, Inst):
                w = w.val
            closed.append("[..]")
        else:
            opened.append("fold(" if isinstance(w, Fold) else "pack(")
            closed.append(")")
            w = w.e if isinstance(w, Fold) else w.val
    if isinstance(w, IntVal):
        base = int_str(w.n)
    elif isinstance(w, Loc):
        base = w.name
    elif isinstance(w, UnitVal):
        base = "()"
    else:
        base = "<value>"
    closed.reverse()
    return "".join(opened) + base + "".join(closed)


# A value is written with every integer in it as int_str gives it.
_VALUES = {**_FORMS, IntVal: lambda v: [int_str(v.n)]}


def value_str(v: Tm | None) -> str:
    """A final value in full, except that each huge integer in it is
    abbreviated."""
    return "?" if v is None else _fill(v, _VALUES)
