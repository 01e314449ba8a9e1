"""Deterministic printer for every syntax class.

Output reparses to an alpha-equal tree. Components render multi-line;
everything else renders inline. Binops are always parenthesized and prefix
forms wrap non-atomic operands, so no precedence table is needed on the
reading side beyond the grammar itself. Instructions and terminators are
written by filling in their templates in ``syntax.T_SYNTAX``, types,
return markers and code-block headers by filling in those in
``syntax.TY_SYNTAX``, and terms by filling in those in
``syntax.TM_SYNTAX``, with one filler, ``_fill``; they are the same
templates the parser reads. Only an instantiation chain, written
``u[w1, w2]``, is printed by hand. A form whose template ends in a term
slot (``e1; e2``, a ``let`` or a lambda) is written along that slot
with a loop.

``int_str``, ``word_str`` and ``value_str`` render run-time values for
outcomes, trace records and equivalence reports.
"""

from __future__ import annotations

from .syntax import (
    T_SYNTAX, TM_SYNTAX, TY_SYNTAX, App, Binop, Boundary, CodeBlock, CodeT,
    Component, Fold, HeapBinding, If0, Inst, Instr, IntVal, ISeq, Lam, Let,
    Loc, Mk, Node, Pack, Program, Reg, Seq, SeqE, SNil, Stk, SVar, Tm,
    TupleVal, Ty, UnitVal, Var, stack_parts, template_parts,
)


def ty(t: Ty) -> str:
    return _fill(t, _TYPES, "a type")


def _types(ts) -> str:
    return ", ".join(map(ty, ts))


def _annotated(pairs) -> str:
    """(name, type) pairs, as register files and parameters are written."""
    return ", ".join(f"{x}: {ty(t)}" for x, t in pairs)


def phi(prefix) -> str:
    out = ""
    for t in prefix:
        out += f"{ty(t)} :: "
    return out + "."


def stk(s: Stk) -> str:
    prefix, tail = stack_parts(s)
    match tail:
        case SNil():
            end = "*"
        case SVar(name):
            end = name
        case _:
            raise TypeError(f"not a stack: {s!r}")
    return " :: ".join([*map(ty, prefix), end])


def mk(q: Mk) -> str:
    return _fill(q, _MARKERS, "a marker")


def omega(w: Node) -> str:
    if isinstance(w, Ty):
        return ty(w)
    if isinstance(w, Stk):
        return stk(w)
    if isinstance(w, Mk):
        return mk(w)
    raise TypeError(f"not an instantiation argument: {w!r}")


def _bare(*classes):
    """A term renderer that parenthesizes every term but those of classes."""
    return lambda e: tm(e) if isinstance(e, classes) else f"({tm(e)})"


def _wrapped(*classes):
    """A term renderer that parenthesizes the terms of classes."""
    return lambda e: f"({tm(e)})" if isinstance(e, classes) else tm(e)


def _terms(es) -> str:
    return ", ".join(map(tm, es))


def tm(e: Tm) -> str:
    """A term, filled into its template; a chain of forms whose template
    ends in a term slot is written along those slots with a loop, and an
    instantiation chain u[w1][w2] is written u[w1, w2]."""
    tail = _TAILS.get(type(e))
    if tail is not None:
        out = []
        while tail is not None:
            parts, last, field = tail
            out += [lit + render(getattr(e, f)) for lit, f, render in parts]
            out.append(last)
            e = getattr(e, field)
            tail = _TAILS.get(type(e))
        return "".join(out) + tm(e)
    if type(e) is not Inst:
        return _fill(e, _TERMS, "a term")
    ws = []
    while type(e) is Inst:
        ws.append(omega(e.omega))
        e = e.val
    ws.reverse()
    b = tm(e) if isinstance(e, (Var, Reg, Loc)) else f"({tm(e)})"
    return f"{b}[{', '.join(ws)}]"


def _compile(template: str, render: dict) -> tuple:
    """A template as (literal, field, renderer) parts and its closing
    literal."""
    parts, end = template_parts(template)
    return tuple((lit, f, render.get(f, str)) for lit, f in parts), end


def _fill(node: Node, forms: dict, what: str, cls: type | None = None) -> str:
    """node's fields, each rendered into its slot of the template in forms
    of node's class, or of cls."""
    form = forms.get(cls or type(node))
    if form is None:
        raise TypeError(f"not {what}: {node!r}")
    parts, end = form
    return "".join([lit + render(getattr(node, f)) for lit, f, render in parts]) + end


def instr(i: Instr | ISeq) -> str:
    """An instruction or terminator, filled into its template."""
    return _fill(i, _FORMS, "an instruction")


def iseq_lines(s: ISeq, ind: int) -> list[str]:
    pad = " " * ind
    lines = []
    while isinstance(s, Seq):
        lines.append(f"{pad}{instr(s.head)};")
        s = s.tail
    if isinstance(s, Instr) or type(s) not in _FORMS:
        raise TypeError(f"sequence does not end in a terminator: {s!r}")
    lines.append(pad + instr(s))
    return lines


def binding_lines(hb: HeapBinding, ind: int) -> list[str]:
    pad = " " * ind
    v = hb.value
    if isinstance(v, CodeBlock):
        # The header is the block's code type: CodeBlock has its fields.
        head = f"{pad}{hb.label} -> {_fill(v, _TYPES, 'a code type', CodeT)}."
        return [head] + iseq_lines(v.body, ind + 2)
    if isinstance(v, TupleVal):
        return [f"{pad}{hb.label} -> {hb.nu} <{_terms(v.items)}>"]
    raise TypeError(f"bad heap value: {v!r}")


def component(c: Component, ind: int = 0) -> str:
    pad = " " * ind
    lines = [f"{pad}("]
    lines += iseq_lines(c.body, ind + 2)
    if c.heap:
        lines[-1] += ","
        lines.append(f"{pad}  where")
        for k, hb in enumerate(c.heap):
            bl = binding_lines(hb, ind + 4)
            if k < len(c.heap) - 1:
                bl[-1] += ","
            lines += bl
    lines.append(f"{pad})")
    return "\n".join(lines)


# How each slot of a T_SYNTAX or TM_SYNTAX template is written, by its
# field name; any other field is a name or a number, written as str()
# gives it. A prefix form's operand is a single atom; an arithmetic
# operand, or the first term of a sequence, must not extend to the right;
# a one-tuple's item is followed by a comma.
_RENDER = {"u": tm, "body": tm, "sigma0": stk, "sigma": stk, "ann": ty,
           "qret": mk, "phi": phi, "params": _annotated,
           "stack": lambda s: "" if s is None else f"[{phi(s[0])} => {phi(s[1])}] ",
           **dict.fromkeys(("cond", "then", "els", "e"),
                           _bare(Var, IntVal, UnitVal, TupleVal, Reg, Loc, Boundary, Binop)),
           **dict.fromkeys(("left", "right"), _wrapped(Lam, Let, SeqE, If0)),
           "fn": _bare(Var, App, Boundary, Inst, Loc, Reg), "args": _terms,
           "items": lambda es: f"{tm(es[0])}," if len(es) == 1 else _terms(es),
           "rhs": tm, "first": _wrapped(Let, Lam, SeqE), "second": tm,
           "comp": component, "wit": ty, "val": tm}
_LET_RENDER = {**_RENDER, "ann": lambda t: "" if t is None else f" : {ty(t)}"}
_TY_RENDER = {"params": _types, "items": _types, "binders": ", ".join,
              "chi": _annotated, "phi_in": phi, "phi_out": phi, "ret": ty,
              "body": ty, "psi": ty, "tau": ty, "sigma": stk, "q": mk}

_FORMS = {cls: _compile(template, _RENDER) for cls, template in T_SYNTAX.items()}
_TERMS = {cls: _compile(template, _LET_RENDER if cls is Let else _RENDER)
          for cls, template in TM_SYNTAX.items()}
_TYPES = {cls: _compile(t, _TY_RENDER) for cls, t in TY_SYNTAX.items() if issubclass(cls, Ty)}
_MARKERS = {cls: _compile(t, _TY_RENDER) for cls, t in TY_SYNTAX.items() if issubclass(cls, Mk)}
# The term forms whose template ends in a slot that ``tm`` fills: the
# parts before that slot, and its literal and field.
_TAILS = {cls: (parts[:-1], *parts[-1][:2])
          for cls, (parts, end) in _TERMS.items() if not end and parts[-1][2] is tm}


def program(p: Program) -> str:
    if p.entry == "T":
        return "entry T\n" + component(p.main) + "\n"
    return "entry F\n" + tm(p.main) + "\n"


# Values, as run output, trace records and eq rows show them.


# Computed once: CPython folds no power this large at compile time.
_HUGE = 10 ** 40


def int_str(n: int) -> str:
    """Decimal rendering that stays cheap for enormous integers."""
    if -_HUGE < n < _HUGE:
        return str(n)
    return f"<int ~10^{int(n.bit_length() * 0.30103)}>"


def word_str(w) -> str:
    """A short rendering of a machine word, as registers and stacks hold it."""
    if isinstance(w, IntVal):
        return int_str(w.n)
    if isinstance(w, UnitVal):
        return "()"
    if isinstance(w, Loc):
        return w.name
    if isinstance(w, Inst):
        base = w
        while isinstance(base, Inst):
            base = base.val
        return f"{word_str(base)}[..]"
    if isinstance(w, Fold):
        return f"fold({word_str(w.e)})"
    if isinstance(w, Pack):
        return f"pack({word_str(w.val)})"
    return "<value>"


def value_str(v: Tm | None) -> str:
    """A final value in full, except that a huge integer is abbreviated."""
    if isinstance(v, IntVal):
        return int_str(v.n)
    return tm(v) if v is not None else "?"
