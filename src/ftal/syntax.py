"""Abstract syntax shared by the functional language F and the assembly T.

Every node is a frozen dataclass; all operations build new nodes. Names
live in five namespaces: type variables, stack variables, return-marker
variables, F term variables, and heap labels.

Binding is declared once, in ``SCHEMA``: for each node class, its child
fields with their shapes, and the names it binds with their namespace and
scope. Two walks read it, and neither recurses. ``subterms`` yields every
sub-node with the names bound around it, each numbered by its binder;
``free_names``, ``alpha_equal`` (two walks side by side) and the checker
read scope from it. ``substitute`` (capture-avoiding, in any namespace)
rebuilds nodes post-order from an explicit stack; ``subst_terms``,
``rename_locations`` and ``instantiate`` are adapters onto it. A new node
class needs one ``SCHEMA`` entry and nothing else here.

The concrete syntax of T's instructions and terminators is declared once,
in ``T_SYNTAX``, that of types and return markers in ``TY_SYNTAX``, and
that of terms in ``TM_SYNTAX``: one template per class, whose slots are
the class's fields. Only an instantiation (``Inst``) has no template.
The printer fills in every template; the parser reads each one that
starts with a keyword or mark, and reads the rest by hand: type
variables, arrows, the register, index and ``eps`` markers, lambdas, and
the terms that start with a name, a literal or ``(`` (variables,
registers, labels, integers, unit, binops, applications, tuples and
sequences).

Heap labels are nominal: a component binds its labels, which shadows
them, but they are never freshened, and alpha-equality compares them by
name.

The kind of a type-level variable is determined by its spelling: names
starting with ``z`` are stack variables, names starting with ``eps`` are
return-marker variables, anything else is an ordinary type variable. Fresh
names keep their prefix so freshening preserves kinds.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from itertools import count
from operator import attrgetter
from string import Formatter

KIND_TYPE = "type"
KIND_STACK = "stack"
KIND_MARKER = "marker"
KIND_TERM = "term"
KIND_LOC = "loc"

REGISTERS = ("r1", "r2", "r3", "r4", "r5", "r6", "r7", "ra")
_REG_ORDER = {r: i for i, r in enumerate(REGISTERS)}


def kind_of_name(name: str) -> str:
    if name.startswith("z"):
        return KIND_STACK
    if name.startswith("eps"):
        return KIND_MARKER
    return KIND_TYPE


def is_register(name: str) -> bool:
    return name in _REG_ORDER


class Node:
    __slots__ = ()


class TypeLevel(Node):
    """Base for types, stacks and markers. Each keeps the hash its
    dataclass gives once it is first asked for, since types key the
    machine's closing table and the boundary's memos on every crossing.
    The kept hash is not a field, so equality, printing and ``SCHEMA``
    ignore it; it is neither pickled nor copied, as a str hash differs
    from one process to the next."""

    __slots__ = ()
    _hash = None

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


class Ty(TypeLevel):
    """Base for value types (F types, T word types, heap types)."""

    __slots__ = ()


class Stk(TypeLevel):
    """Base for stack types."""

    __slots__ = ()


class Mk(TypeLevel):
    """Base for return markers."""

    __slots__ = ()


class Tm(Node):
    """Base for F expressions and T value forms."""

    __slots__ = ()


class Instr(Node):
    """Base for non-terminator instructions."""

    __slots__ = ()


class ISeq(Node):
    """Base for instruction sequences (Seq chains ending in a terminator)."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class TVar(Ty):
    name: str


@dataclass(frozen=True)
class TyUnit(Ty):
    pass


@dataclass(frozen=True)
class TyInt(Ty):
    pass


@dataclass(frozen=True)
class Arrow(Ty):
    params: tuple[Ty, ...]
    ret: Ty


@dataclass(frozen=True)
class StackArrow(Ty):
    """Function type with a visible stack prefix: (params)[phi_in => phi_out] -> ret."""

    params: tuple[Ty, ...]
    phi_in: tuple[Ty, ...]
    phi_out: tuple[Ty, ...]
    ret: Ty


@dataclass(frozen=True)
class TyTuple(Ty):
    items: tuple[Ty, ...]


@dataclass(frozen=True)
class Mu(Ty):
    var: str
    body: Ty


@dataclass(frozen=True)
class Exists(Ty):
    var: str
    body: Ty


@dataclass(frozen=True)
class Ref(Ty):
    """Mutable heap tuple; psi is always a TyTuple."""

    psi: Ty


@dataclass(frozen=True)
class Box(Ty):
    """Immutable heap value; psi is a TyTuple or a CodeT."""

    psi: Ty


@dataclass(frozen=True)
class CodeT(Ty):
    """Code type: forall binders, register-file precondition, stack, marker.

    ``chi`` is kept canonically sorted in register order so that structural
    comparison is order-insensitive.
    """

    binders: tuple[str, ...]
    chi: tuple[tuple[str, Ty], ...]
    sigma: Stk
    q: Mk


def make_chi(entries) -> tuple[tuple[str, Ty], ...]:
    d = dict(entries)
    for r in d:
        if not is_register(r):
            raise ValueError(f"not a register: {r}")
    return tuple((r, d[r]) for r in REGISTERS if r in d)


def chi_get(chi: tuple[tuple[str, Ty], ...], reg: str) -> Ty | None:
    for r, t in chi:
        if r == reg:
            return t


def arrow_parts(t: Ty) -> tuple[list, list, list, Ty]:
    """(params, phi_in, phi_out, ret) of an Arrow or StackArrow; a plain
    arrow has empty stack prefixes."""
    if isinstance(t, StackArrow):
        return list(t.params), list(t.phi_in), list(t.phi_out), t.ret
    return list(t.params), [], [], t.ret


# ---------------------------------------------------------------------------
# Stack types


@dataclass(frozen=True)
class SNil(Stk):
    pass


@dataclass(frozen=True)
class SVar(Stk):
    name: str


@dataclass(frozen=True)
class SCons(Stk):
    head: Ty
    tail: Stk


def stack_of(items, tail: Stk) -> Stk:
    out = tail
    for t in reversed(list(items)):
        out = SCons(t, out)
    return out


def stack_parts(sigma: Stk) -> tuple[list[Ty], Stk]:
    """Split a stack into its visible prefix and its tail (SNil or SVar)."""
    prefix: list[Ty] = []
    while isinstance(sigma, SCons):
        prefix.append(sigma.head)
        sigma = sigma.tail
    return prefix, sigma


# ---------------------------------------------------------------------------
# Return markers


@dataclass(frozen=True)
class MReg(Mk):
    reg: str


@dataclass(frozen=True)
class MIdx(Mk):
    idx: int


@dataclass(frozen=True)
class MEps(Mk):
    name: str


@dataclass(frozen=True)
class MHalt(Mk):
    tau: Ty
    sigma: Stk


@dataclass(frozen=True)
class MOut(Mk):
    pass


# ---------------------------------------------------------------------------
# Terms: F expressions and T value forms


@dataclass(frozen=True)
class Var(Tm):
    name: str


@dataclass(frozen=True)
class IntVal(Tm):
    n: int


@dataclass(frozen=True)
class UnitVal(Tm):
    pass


@dataclass(frozen=True)
class Binop(Tm):
    op: str
    left: Tm
    right: Tm


@dataclass(frozen=True)
class If0(Tm):
    cond: Tm
    then: Tm
    els: Tm


@dataclass(frozen=True)
class Lam(Tm):
    """Plain lambda when stack is None, stack lambda otherwise.

    ``stack`` is a pair (phi_in, phi_out) of visible stack prefixes.
    """

    params: tuple[tuple[str, Ty], ...]
    body: Tm
    stack: tuple[tuple[Ty, ...], tuple[Ty, ...]] | None = None


@dataclass(frozen=True)
class App(Tm):
    fn: Tm
    args: tuple[Tm, ...]


@dataclass(frozen=True)
class TupleVal(Tm):
    items: tuple[Tm, ...]


@dataclass(frozen=True)
class Proj(Tm):
    idx: int
    e: Tm


@dataclass(frozen=True)
class Fold(Tm):
    ann: Ty
    e: Tm


@dataclass(frozen=True)
class Unfold(Tm):
    e: Tm


@dataclass(frozen=True)
class Let(Tm):
    var: str
    ann: Ty | None
    rhs: Tm
    body: Tm


@dataclass(frozen=True)
class SeqE(Tm):
    first: Tm
    second: Tm


@dataclass(frozen=True)
class Boundary(Tm):
    """FT[ann](component): run T code, give its halting value back to F."""

    ann: Ty
    comp: "Component"


@dataclass(frozen=True)
class Reg(Tm):
    name: str


@dataclass(frozen=True)
class Loc(Tm):
    name: str


@dataclass(frozen=True)
class Pack(Tm):
    wit: Ty
    val: Tm
    ann: Ty


@dataclass(frozen=True)
class Inst(Tm):
    """Type-level instantiation u[omega]; omega is a type, stack, or marker."""

    val: Tm
    omega: Node


# ---------------------------------------------------------------------------
# Instructions


@dataclass(frozen=True)
class Aop(Instr):
    op: str
    rd: str
    rs: str
    u: Tm


@dataclass(frozen=True)
class Bnz(Instr):
    r: str
    u: Tm


@dataclass(frozen=True)
class Ld(Instr):
    rd: str
    rs: str
    idx: int


@dataclass(frozen=True)
class St(Instr):
    rd: str
    idx: int
    rs: str


@dataclass(frozen=True)
class Ralloc(Instr):
    rd: str
    n: int


@dataclass(frozen=True)
class Balloc(Instr):
    rd: str
    n: int


@dataclass(frozen=True)
class Mv(Instr):
    rd: str
    u: Tm


@dataclass(frozen=True)
class Salloc(Instr):
    n: int


@dataclass(frozen=True)
class Sfree(Instr):
    n: int


@dataclass(frozen=True)
class Sld(Instr):
    rd: str
    idx: int


@dataclass(frozen=True)
class Sst(Instr):
    idx: int
    rs: str


@dataclass(frozen=True)
class Unpack(Instr):
    """unpack <a, rd> u; binds the type variable a over the rest of the sequence."""

    tv: str
    rd: str
    u: Tm


@dataclass(frozen=True)
class UnfoldI(Instr):
    rd: str
    u: Tm


@dataclass(frozen=True)
class Protect(Instr):
    """protect phi, zeta; hides the stack below phi behind zeta for the rest."""

    phi: tuple[Ty, ...]
    zeta: str


@dataclass(frozen=True)
class ImportI(Instr):
    """import rd, sigma0 as zeta, ann TF{ body }; zeta scopes over body only."""

    rd: str
    sigma0: Stk
    zeta: str
    ann: Ty
    body: Tm


# ---------------------------------------------------------------------------
# Instruction sequences


@dataclass(frozen=True)
class Seq(ISeq):
    head: Instr
    tail: ISeq


@dataclass(frozen=True)
class Jmp(ISeq):
    u: Tm


@dataclass(frozen=True)
class Call(ISeq):
    u: Tm
    sigma0: Stk
    qret: Mk


@dataclass(frozen=True)
class Ret(ISeq):
    r: str
    r2: str


@dataclass(frozen=True)
class Halt(ISeq):
    ann: Ty
    sigma: Stk
    reg: str


def seq_of(instrs, terminator: ISeq) -> ISeq:
    out = terminator
    for i in reversed(list(instrs)):
        out = Seq(i, out)
    return out


# ---------------------------------------------------------------------------
# Heap fragments, components, programs


@dataclass(frozen=True)
class CodeBlock(Node):
    binders: tuple[str, ...]
    chi: tuple[tuple[str, Ty], ...]
    sigma: Stk
    q: Mk
    body: ISeq


@dataclass(frozen=True)
class HeapBinding(Node):
    label: str
    nu: str  # "box" or "ref"
    value: Node  # CodeBlock or TupleVal of word values


@dataclass(frozen=True)
class Component(Node):
    body: ISeq
    heap: tuple[HeapBinding, ...]

    def labels(self) -> tuple[str, ...]:
        return tuple(hb.label for hb in self.heap)


@dataclass(frozen=True)
class Program(Node):
    entry: str  # "F" or "T"
    main: Node  # Tm when entry == "F", Component when entry == "T"


# ---------------------------------------------------------------------------
# Binding schema

# Shapes of child fields: one node; a tuple of nodes; (name, node) pairs
# (chi, Lam params); a node or None; Lam.stack, which is None or a pair
# of tuples of types; a component's heap, whose bindings pair up by label
# when compared.
NODE, TUPLE, PAIRS, OPT, STACK, HEAP = "node", "tuple", "pairs", "opt", "stack", "heap"
SPELLED = "spelled"  # binder kind: each name's own, by kind_of_name
TAIL = "tail"  # binder scope: the rest of the enclosing Seq


class Schema:
    """How one node class holds syntax and binds names.

    ``children`` are the fields that hold syntax, each given as (field,
    shape), or as a bare field name for one node; every other field is a
    plain attribute (an operator, a register, an index) compared by
    equality. ``binds`` is
    (field, kind, scope): the field holding the bound names, their
    namespace, and the sibling fields they scope over (or TAIL). A
    sequence binds, over its tail, what its head binds over the rest of
    the sequence. ``var`` is the namespace of a node that is a variable
    occurrence.
    """

    def __init__(self, cls, *children, binds=None, var=None):
        self.cls, self.var, self.binds = cls, var, binds
        self.bfield, self.bkind, scope = binds or (None, None, ())
        self.tail = scope == TAIL
        # Binds over siblings; labels are nominal, so only shadow.
        self.scoped = self.bfield is not None and not self.tail
        shapes = dict((c, NODE) if isinstance(c, str) else c for c in children)
        names = [f.name for f in fields(cls)]
        # (field, shape or None for an attribute, in the binder's scope).
        self.fields = tuple((n, shapes.get(n), self.scoped and n in scope) for n in names)
        self.children = tuple(f for f in self.fields if f[1] is not None)
        self.attrs = tuple(n for n in names if n not in shapes and n != self.bfield)
        # Reads every attribute at once: a tuple, or the only one's value.
        self.get_attrs = attrgetter(*self.attrs) if self.attrs else None
        # The children in the order a walk pushes them, last first, each
        # with whether alpha-equality compares its _split frame: bound
        # names are matched where they occur, labels by name.
        self.pushed = tuple(
            (n, shape, scoped, shape != NODE and (n != self.bfield or self.bkind == KIND_LOC))
            for n, shape, scoped in reversed(self.children))
        self.typelevel = issubclass(cls, TypeLevel)


_LEAVES = (TyUnit, TyInt, SNil, MReg, MIdx, MOut, IntVal, UnitVal, Reg,
           Ld, St, Ralloc, Balloc, Salloc, Sfree, Sld, Sst, Ret)
SCHEMA: dict = {sc.cls: sc for sc in (
    *(Schema(cls) for cls in _LEAVES),
    Schema(TVar, var=KIND_TYPE),
    Schema(SVar, var=KIND_STACK),
    Schema(MEps, var=KIND_MARKER),
    Schema(Var, var=KIND_TERM),
    Schema(Loc, var=KIND_LOC),
    Schema(Arrow, ("params", TUPLE), "ret"),
    Schema(StackArrow, ("params", TUPLE), ("phi_in", TUPLE), ("phi_out", TUPLE), "ret"),
    Schema(TyTuple, ("items", TUPLE)),
    *(Schema(cls, "body", binds=("var", KIND_TYPE, ("body",))) for cls in (Mu, Exists)),
    *(Schema(cls, "psi") for cls in (Ref, Box)),
    Schema(CodeT, ("chi", PAIRS), "sigma", "q", binds=("binders", SPELLED, ("chi", "sigma", "q"))),
    Schema(SCons, "head", "tail"),
    Schema(MHalt, "tau", "sigma"),
    Schema(Binop, "left", "right"),
    Schema(If0, "cond", "then", "els"),
    Schema(Lam, ("params", PAIRS), "body", ("stack", STACK), binds=("params", KIND_TERM, ("body",))),
    Schema(App, "fn", ("args", TUPLE)),
    Schema(TupleVal, ("items", TUPLE)),
    Schema(Proj, "e"),
    Schema(Fold, "ann", "e"),
    Schema(Unfold, "e"),
    Schema(Let, ("ann", OPT), "rhs", "body", binds=("var", KIND_TERM, ("body",))),
    Schema(SeqE, "first", "second"),
    Schema(Boundary, "ann", "comp"),
    Schema(Pack, "wit", "val", "ann"),
    Schema(Inst, "val", "omega"),
    *(Schema(cls, "u") for cls in (Aop, Bnz, Mv, UnfoldI, Jmp)),
    Schema(Unpack, "u", binds=("tv", KIND_TYPE, TAIL)),
    Schema(Protect, ("phi", TUPLE), binds=("zeta", KIND_STACK, TAIL)),
    Schema(ImportI, "sigma0", "ann", "body", binds=("zeta", KIND_STACK, ("body",))),
    Schema(Seq, "head", "tail", binds=("head", None, ("tail",))),
    Schema(Call, "u", "sigma0", "qret"),
    Schema(Halt, "ann", "sigma"),
    Schema(CodeBlock, ("chi", PAIRS), "sigma", "q", "body",
           binds=("binders", SPELLED, ("chi", "sigma", "q", "body"))),
    Schema(HeapBinding, "value"),
    Schema(Component, "body", ("heap", HEAP), binds=("heap", KIND_LOC, ("body", "heap"))),
    Schema(Program, "main"),
)}

_VAR_NODES = {sc.var: cls for cls, sc in SCHEMA.items() if sc.var}
_TYPE_KINDS = (KIND_TYPE, KIND_STACK, KIND_MARKER)


def _kept_hash(node: TypeLevel) -> int:
    h = node._hash
    if h is None:
        h = node.__dict__["_hash"] = node._field_hash()
    return h


# A type-level node hashes through its dataclass's hash once, and keeps it.
for _sc in SCHEMA.values():
    if _sc.typelevel:
        _sc.cls._field_hash, _sc.cls.__hash__ = _sc.cls.__hash__, _kept_hash


# ---------------------------------------------------------------------------
# Concrete syntax of T, of types and of terms

# One template per instruction and terminator: the text between slots is
# literal tokens, and each {field} is one slot, holding that field of the
# node; {{ and }} are literal braces. The parser reads these templates
# and the printer fills them in. An Aop's mnemonic is its op slot.
T_SYNTAX: dict = {
    Aop: "{op} {rd}, {rs}, {u}",
    Bnz: "bnz {r}, {u}",
    Ld: "ld {rd}, {rs}[{idx}]",
    St: "st {rd}[{idx}], {rs}",
    Ralloc: "ralloc {rd}, {n}",
    Balloc: "balloc {rd}, {n}",
    Mv: "mv {rd}, {u}",
    Salloc: "salloc {n}",
    Sfree: "sfree {n}",
    Sld: "sld {rd}, {idx}",
    Sst: "sst {idx}, {rs}",
    Unpack: "unpack <{tv}, {rd}> {u}",
    UnfoldI: "unfold {rd}, {u}",
    Protect: "protect {phi}, {zeta}",
    ImportI: "import {rd}, {sigma0} as {zeta}, {ann} TF{{ {body} }}",
    Jmp: "jmp {u}",
    Call: "call {u} {{{sigma0}, {qret}}}",
    Ret: "ret {r} {{{r2}}}",
    Halt: "halt[{ann}, {sigma}] {reg}",
}
AOPS = ("add", "sub", "mul")  # the values of Aop.op

# One template per type and return marker, in the same form. A slot that
# holds a tuple is a comma-separated list (a register file's entries are
# written ``r: type``), and a StackArrow's prefixes are written as in
# ``protect``.
TY_SYNTAX: dict = {
    TVar: "{name}",
    TyUnit: "unit",
    TyInt: "int",
    Arrow: "({params}) -> {ret}",
    StackArrow: "({params})[{phi_in} => {phi_out}] -> {ret}",
    TyTuple: "<{items}>",
    Mu: "mu {var}. {body}",
    Exists: "exists {var}. {body}",
    Ref: "ref {psi}",
    Box: "box {psi}",
    CodeT: "code[{binders}]{{{chi}; {sigma}}} {q}",
    MReg: "{reg}",
    MIdx: "{idx}",
    MEps: "{name}",
    MHalt: "ret({tau}, {sigma})",
    MOut: "out",
}

# One template per term, in the same form, but for an instantiation,
# whose chain u[w1][w2] is written u[w1, w2]. A lambda's stack slot is
# its prefixes, written as in a StackArrow and followed by a space, or
# nothing; a let's ann slot is " : type", or nothing.
TM_SYNTAX: dict = {
    Var: "{name}",
    IntVal: "{n}",
    UnitVal: "()",
    Binop: "({left} {op} {right})",
    If0: "if0 {cond} {then} {els}",
    Lam: "lam {stack}({params}). {body}",
    App: "{fn}({args})",
    TupleVal: "({items})",
    Proj: "pi.{idx} {e}",
    Fold: "fold {ann} {e}",
    Unfold: "unfold {e}",
    Let: "let {var}{ann} = {rhs} in {body}",
    SeqE: "{first}; {second}",
    Boundary: "FT[{ann}]{comp}",
    Reg: "{name}",
    Loc: "{name}",
    Pack: "pack <{wit}, {val}> as {ann}",
}


def template_parts(template: str) -> tuple[list[tuple[str, str]], str]:
    """A template as (literal, field) pairs, in order, and the literal
    after its last slot."""
    parts, text = [], ""
    # The formatter ends a literal at each escaped brace, with no field.
    for literal, field, _, _ in Formatter().parse(template):
        text += literal
        if field is not None:
            parts.append((text, field))
            text = ""
    return parts, text


def binders(node) -> list:
    """The (kind, name) pairs that ``node`` binds, as its schema says; a
    sequence binds what its head binds over the rest of the sequence."""
    sc, seq = SCHEMA[type(node)], type(node) is Seq
    if seq:
        node, sc = node.head, SCHEMA[type(node.head)]
    if sc.bfield is None or (seq and not sc.tail):
        return []
    value = getattr(node, sc.bfield)
    if isinstance(value, str):
        value = (value,)
    names = [x if isinstance(x, str) else x[0] if isinstance(x, tuple) else x.label for x in value]
    if sc.bkind == SPELLED:
        return [(kind_of_name(n), n) for n in names]
    return [(sc.bkind, n) for n in names]


def _split(shape, value):
    """A child field as (its frame, its nodes); the frame is everything
    alpha-equality compares apart from the nodes."""
    if shape == NODE:
        return None, (value,)
    if shape == TUPLE:
        return len(value), value
    if shape == PAIRS:
        return tuple(n for n, _ in value), [x for _, x in value]
    if shape == HEAP:
        heap = sorted(value, key=lambda hb: hb.label)
        return [hb.label for hb in heap], heap
    if value is None:
        return None, ()
    if shape == OPT:
        return False, (value,)
    return (len(value[0]), len(value[1])), value[0] + value[1]


def subterms(node, frames: bool = False):
    """Every node in ``node``, itself first, in pre-order with children in
    field order, as (node, bound, frame). ``bound`` maps each (kind,
    name) pair bound around the node at that point to the serial number
    of its binder. Each walk numbers binders from one counter as it meets
    them, so two walks of alpha-equal terms number theirs alike. With
    ``frames``, the frame is what alpha-equality compares of the node
    apart from its class, attributes and variables: the kinds of the
    names it binds over its fields, then the frame of each child field
    that ``Schema.pushed`` marks, in that order, or None if it has
    neither; without, it is None. A binder over the rest of a sequence
    binds one name of its schema's kind, so its kinds are its class's.
    Iterative, so deep terms do not recurse."""
    serial = count()
    todo = [(node, {}, None)]
    pop, push = todo.pop, todo.append
    while todo:
        item = pop()
        node, bound, _ = item
        sc = SCHEMA[type(node)]
        if not sc.children:
            yield item
            continue
        if sc.cls is Seq:
            head_sc = SCHEMA[type(node.head)]
            tail = bound | dict(zip(binders(node.head), serial)) if head_sc.tail else bound
            push((node.tail, tail, None))
            push((node.head, bound, None))
            yield item
            continue
        inner, frame = bound, None
        if sc.scoped:
            keys = binders(node)
            inner = bound | dict(zip(keys, serial))
            if frames:
                frame = [kind for kind, _ in keys]
        for name, shape, scoped, framed in sc.pushed:
            value, b = getattr(node, name), inner if scoped else bound
            if shape == NODE:
                push((value, b, None))
                continue
            split, children = _split(shape, value)
            if framed and frames:
                frame = [split] if frame is None else frame + [split]
            for child in reversed(children):
                push((child, b, None))
        yield item if frame is None else (node, bound, frame)


# ---------------------------------------------------------------------------
# Free names and fresh names


def free_names(node) -> frozenset:
    """All free names of every kind, as (kind, name) pairs: the variable
    occurrences that no binder around them binds."""
    out: set = set()
    for n, bound, _ in subterms(node):
        kind = SCHEMA[type(n)].var
        if kind is not None and (kind, n.name) not in bound:
            out.add((kind, n.name))
    return frozenset(out)


def var_node(kind: str, name: str) -> Node:
    return _VAR_NODES[kind](name)


def fresh_name(base: str, avoid) -> str:
    """Deterministic fresh name with the same kind prefix as base.

    ``avoid`` is a set of plain names. No global state: the result depends
    only on the arguments, which keeps runs reproducible.
    """
    root = base.split("#", 1)[0]
    taken = set(avoid)
    k = 0
    while f"{root}#{k}" in taken:
        k += 1
    return f"{root}#{k}"


# ---------------------------------------------------------------------------
# Substitution


def substitute(node, mapping: dict):
    """Capture-avoiding substitution of free names of any kind.

    ``mapping`` sends (kind, name) pairs to replacements: a type, stack or
    marker for the type-level kinds, a term for KIND_TERM, a Loc for
    KIND_LOC. A binder that would capture a free name of a replacement is
    freshened first; heap labels never are.

    Iterative: an entry of the stack is a node, or a tuple in a child
    field, to walk under its passes; or, with passes None, one to rebuild
    from the results of its parts, which their walks left on ``done`` in
    order, the first on top. So a heap keeps the order it is declared in.
    """
    if not mapping:
        return node
    done: list = []
    todo = [(node, (_pass(mapping),))]
    push, pop = todo.append, done.pop
    while todo:
        node, passes = todo.pop()
        if passes is None:
            if type(node) is Seq:  # most of what is walked
                done.append(Seq(pop(), pop()))
            elif type(node) is tuple:
                done.append(tuple([pop() for _ in node]))
            else:
                sc = SCHEMA[type(node)]
                done.append(sc.cls(*[getattr(node, name) if shape is None else pop()
                                     for name, shape, _ in sc.fields]))
            continue
        sc = SCHEMA.get(type(node))
        if sc is None:
            # Inside a child field: a tuple to rebuild, or a name or None.
            if type(node) is tuple:
                push((node, None))
                todo.extend([(x, passes) for x in node])
            else:
                done.append(node)
            continue
        if sc.var is not None:
            # A replacement is walked under the passes after its own.
            key = (sc.var, node.name)
            for i, (m, _, _) in enumerate(passes):
                if key in m:
                    push((m[key], passes[i + 1:]))
                    break
            else:
                done.append(node)
            continue
        if not passes or not sc.children or (sc.typelevel and not any(p[2] for p in passes)):
            done.append(node)
            continue
        inner = passes
        if sc.scoped and (sc.cls is not Seq or SCHEMA[type(node.head)].tail):
            keys = binders(node)
            if keys:
                inner, node = _enter(keys, passes, node)
        push((node, None))
        for name, _, scoped in sc.children:
            push((getattr(node, name), inner if scoped else passes))
    return done[0]


def instantiate(t, omega: Ty) -> Ty:
    """The body of a Mu or Exists with omega for its variable; a Mu
    unrolls as ``instantiate(t, t)``."""
    return substitute(t.body, {(KIND_TYPE, t.var): omega})


def subst_terms(node, mapping: dict):
    """Capture-avoiding substitution of F term variables (name -> term)."""
    return substitute(node, {(KIND_TERM, x): v for x, v in mapping.items()})


def rename_locations(node, mapping: dict):
    """Rename free heap labels; a component that rebinds a label shadows it."""
    return substitute(node, {(KIND_LOC, old): Loc(new) for old, new in mapping.items()})


def _pass(mapping: dict) -> tuple:
    """A walk applies a tuple of passes, each as if to the whole result
    of the one before. A pass is (mapping, the names free in its
    replacements, whether it maps a type-level kind). Freshening a binder
    puts a renaming pass for its scope ahead of the pass that needed it."""
    avoid: set = set()
    for v in mapping.values():
        avoid |= free_names(v)
    return mapping, frozenset(avoid), any(k in _TYPE_KINDS for k, _ in mapping)


def _enter(keys: list, passes: tuple, node):
    """The passes for the scope of ``node``'s binders, and ``node`` with
    them freshened (a sequence's are its head's). A fresh name avoids
    every name free in ``node`` or named by a pass, so that it neither
    captures nor is substituted."""
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
    if not renamed:
        return tuple(inner), node
    target = node.head if type(node) is Seq else node
    name = SCHEMA[type(target)].bfield
    old = getattr(target, name)
    new = keys[0][1] if isinstance(old, str) else tuple(
        k[1] if isinstance(x, str) else (k[1], x[1]) for k, x in zip(keys, old))
    target = replace(target, **{name: new})
    return tuple(inner), Seq(target, node.tail) if type(node) is Seq else target


# ---------------------------------------------------------------------------
# Alpha equality


def alpha_equal(a, b) -> bool:
    """Structural equality up to renaming of bound names.

    Walks both terms side by side with ``subterms``. Each pair of nodes
    must agree in class, attributes, the kinds of the names they bind,
    and the frame of each child field, so the two walks stay in step. Two
    variables are equal if the same binder binds both, or if both are
    free and spelled alike. Heap labels are nominal: they compare by
    name, and components must bind the same label set. A binder that
    scopes over the rest of a sequence but heads none binds nothing, so
    its name is not compared. Types, stacks and markers that are equal
    field by field are compared no further.
    """
    if a is b:
        return True
    if isinstance(a, TypeLevel):
        x, y = a, b
        while type(x) is SCons and type(y) is SCons and x.head == y.head:
            x, y = x.tail, y.tail
        if x == y:
            return True
    for (x, bx, fx), (y, by, fy) in zip(subterms(a, True), subterms(b, True)):
        if type(x) is not type(y):
            return False
        sc = SCHEMA[type(x)]
        if sc.var is not None and sc.var != KIND_LOC:
            ix, iy = bx.get((sc.var, x.name)), by.get((sc.var, y.name))
            if ix != iy or ix is None and x.name != y.name:
                return False
            continue
        if fx != fy:
            return False
        get = sc.get_attrs
        if get is not None and get(x) != get(y):
            return False
    return True
