"""Small-step abstract machine for whole programs.

The configuration is a focus (a source expression being decomposed, a
value being plugged back into its context, or a target instruction
sequence), a stack of evaluation frames, a memory of registers, a value
stack, and a heap; a term environment for the source expression in
focus, and a type environment for the target code in focus.  Every
transition costs one unit of fuel.

A step looks its rule up by node type in one of three tables:
``T_RULES`` for the head of a target sequence or its terminator,
``SOURCE_RULES`` for a source expression, and ``RETURN_RULES`` for the
frame a value returns to.  A type with no rule is stuck.  A target rule
takes the machine and its node, the redex, and returns the jump kind.
Sequencing is one rule, stated in ``step``: before an instruction's rule
runs, the focus moves to the rest of its sequence, so only a rule that
transfers control or rewrites the rest sets the focus.  The value stack
keeps its top at the end of a list, so pushing and popping cost nothing
per slot below; ``sld``/``sst`` indices, ``Outcome.stack`` and the
trace's ``stack_depth`` count from the top, as in the semantics.

Source code is evaluated with closures, as a CEK machine: a beta step or
a ``let`` extends the term environment, a persistent chain of (name,
value, parent) cells, instead of substituting into the body.  A lambda
evaluates to a closure of itself and that environment.  A bound
variable, or a tuple or fold whose leaves are values or bound variables,
is a value and takes one ``value`` step, as its substituted form did, so
steps are the same, one for one, as those of a substituting machine.
The frames are the evaluator's continuations, defunctionalized: one
class per form, whose fields record how far its subterms have got, so
its one return rule pushes the same frame back until the last returns.
The frames that later evaluate a subterm (``FrBinop``, ``FrIf0``,
``FrApp``, ``FrTuple``, ``FrLet`` and ``FrSeq``) keep the environment it
needs; ``FrBinop`` drops its right operand and environment once it
resumes it, keeping only the left value.  Only the final
``f-value`` is read back to a closed term, by substituting the bindings
free in each lambda; an exported value crosses as it is.

A component crossing a boundary is not closed over the term environment:
its body runs under the boundary's, which each ``import`` resumes its
source term under and ``FrImport`` keeps for the code after it.  That is
sound because heap blocks are checked under an empty term context, so
only the body can name a source variable, and the body runs before any
jump leaves it.  (In a program the checker rejects, a heap block that
names one reads it wherever the block runs, and may get stuck where
closing the component would have replaced it.)  The component is entered
as it is, with no walk of its code but the renaming of its heap labels,
and one with no heap, as every one a boundary translation builds, with
no walk at all.

A jump enters its block with its instantiations substituted into the
body, as in the semantics, but a block is closed once per instantiation:
each (binders, *omegas) has one environment, which maps each binder to
its closed instantiation and keeps every body closed under it, so a loop
or a repeated call substitutes nothing after its first entry.
``unpack`` closes the rest of its sequence the same way, under the
environment of its type variable and witness, and leaves the code's own
in place.  So the code in focus binds every type name it uses, an
instruction reads its operands as they are, and every word in a
register, on the stack or in the heap is closed.  An exported wrapper is
a fresh block for each crossing, but its body, shared by every wrapper at
its annotation, applies a term variable that the block's own term
environment (``CodeBlock.scope``) binds to the exported value.  Entering
a wrapper closes its body as any other block's and switches to that
scope, which its ``import`` reads; as with a component, no code after
the wrapper's next jump reads it.  A ``jmp`` or ``bnz`` resolves a word
written in the code once and caches the block and environment it
reaches by the word's identity: labels are fresh and a code binding is
never rebound, so the word always reaches the same place.  A word read
from a register (``ret r``, ``jmp r``, ``bnz r, r``) is resolved each
time, since each crossing makes a fresh return address.  A ``call`` adds
its continuation's omegas, so it looks up the (label, *omegas)
environment instead.  So a crossing adds an entry to no cache.  Types,
stacks and markers keep their hash (see ``syntax.TypeLevel``), so such a
lookup hashes no type tree after the first.

A step returns a record with its number, language, jump kind and stack
depth.  The rest of a JSON-ready trace record, the redex text and the
register it set, if any, is rendered only while ``run`` has a trace
sink (or for a direct call of ``step``); the text is that of the closed
instruction.  Each rule sets at most one register, so the rendered
delta is empty or holds one entry, and neither ``step`` nor
``trace_line`` sorts or joins a list for it.  ``trace_line`` is the one
encoder of a full record: it writes the record's JSON line, byte for
byte the line ``json.dumps(record, sort_keys=True)`` gives.

Heap labels are renamed to label#k with a machine-owned counter when a
component's bindings are merged in, so repeated entry into the same
boundary cannot collide and runs are reproducible.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str
from typing import Callable

from .boundary import export_value, import_value
from .errors import TranslationError
from .syntax import (
    KIND_TERM,
    KIND_TYPE,
    SPELLED,
    Aop,
    App,
    Balloc,
    Binop,
    Bnz,
    Boundary,
    Call,
    CodeBlock,
    Component,
    Fold,
    Halt,
    If0,
    ImportI,
    Inst,
    IntVal,
    ISeq,
    Jmp,
    Lam,
    Ld,
    Let,
    Loc,
    Mv,
    Pack,
    Program,
    Proj,
    Protect,
    Ralloc,
    Reg,
    Ret,
    Salloc,
    Seq,
    SeqE,
    Sfree,
    Sld,
    Sst,
    St,
    Tm,
    TupleVal,
    Ty,
    UnfoldI,
    Unfold,
    UnitVal,
    Unpack,
    Var,
    free_names,
    kind_of_name,
    rename_locations,
    subst_terms,
    substitute,
)
from . import pretty

DEFAULT_FUEL = 100000

STUCK_UNBOUND_REGISTER = "unbound-register"
STUCK_UNBOUND_LOCATION = "unbound-location"
STUCK_UNBOUND_VARIABLE = "unbound-variable"
STUCK_STACK_UNDERFLOW = "stack-underflow"
STUCK_BAD_INDEX = "bad-index"
STUCK_TYPE_CONFUSION = "type-confusion"
STUCK_HALT_OUTSIDE = "halt-outside-boundary"
STUCK_UNINSTANTIATED = "uninstantiated-binder"


@dataclass(frozen=True)
class Outcome:
    """Result of running a program for a bounded number of steps.

    kind is "f-value" (a source value), "halted" (target halt at top
    level; value is the halt register's word, stack the final stack),
    "running" (fuel exhausted), or "stuck" (reason says why).
    """

    kind: str
    value: Tm | None = None
    stack: tuple = ()
    reason: str = ""
    detail: str = ""
    steps: int = 0


class _Stuck(Exception):
    def __init__(self, reason: str, detail: str = ""):
        super().__init__(reason)
        self.reason = reason
        self.detail = detail


# Evaluation frames.  ``scope`` is the term environment under which a
# frame's pending subterms run.


@dataclass(slots=True)
class FrBinop:
    op: str
    left: Tm | None  # the left operand's value, once it has returned
    right: Tm | None  # the right operand, or its value with no scope
    scope: tuple | None


@dataclass(slots=True)
class FrIf0:
    then: Tm
    els: Tm
    scope: tuple | None


@dataclass(slots=True)
class FrApp:
    fn: _Clo | Lam | None  # the function's value, once it has returned
    args: tuple
    done: list  # values of args[:len(done)]
    scope: tuple | None


@dataclass(slots=True)
class FrTuple:
    items: tuple
    done: list  # values of items[:len(done)]
    scope: tuple | None


@dataclass(slots=True)
class FrProj:
    idx: int


@dataclass(slots=True)
class FrFold:
    ann: Ty


@dataclass(slots=True)
class FrUnfold:
    pass


@dataclass(slots=True)
class FrLet:
    var: str
    body: Tm
    scope: tuple | None


@dataclass(slots=True)
class FrSeq:
    second: Tm
    scope: tuple | None


@dataclass(slots=True)
class FrBoundary:
    ann: Ty


@dataclass(slots=True)
class FrImport:
    rd: str
    ann: Ty
    rest: ISeq
    env: "_Env"
    scope: tuple | None


class _Clo:
    """A source function value: a lambda and the term environment it was
    evaluated under."""

    __slots__ = ("lam", "scope")

    def __init__(self, lam: Lam, scope: tuple | None):
        self.lam = lam
        self.scope = scope


def _lookup(scope: tuple | None, name: str):
    """The value ``name`` is bound to in ``scope``, or None."""
    while scope is not None:
        if scope[0] == name:
            return scope[1]
        scope = scope[2]
    return None


def _value(e, scope: tuple | None):
    """The value of ``e`` under ``scope`` if ``e`` is a value there (a
    bound variable counts, as its substituted form would), else None."""
    t = type(e)
    if t is IntVal or t is UnitVal or t is _Clo:
        return e
    if t is Lam:
        return _Clo(e, scope)
    if t is Var:
        return _lookup(scope, e.name)
    if t is TupleVal:
        items = []
        for item in e.items:
            v = _value(item, scope)
            if v is None:
                return None
            items.append(v)
        return TupleVal(tuple(items))
    if t is Fold:
        v = _value(e.e, scope)
        return None if v is None else Fold(e.ann, v)
    return None


def _read_back(v):
    """The closed term for the value ``v``: a closure's lambda has the
    value of each term name free in it and bound in its scope read back
    and substituted.  The values read back are closed, so nothing is
    renamed."""
    t = type(v)
    if t is _Clo:
        mapping = {}
        if v.scope is not None:
            for kind, name in free_names(v.lam):
                if kind == KIND_TERM:
                    bound = _lookup(v.scope, name)
                    if bound is not None:
                        mapping[name] = _read_back(bound)
        return subst_terms(v.lam, mapping) if mapping else v.lam
    if t is TupleVal:
        return TupleVal(tuple([_read_back(item) for item in v.items]))
    if t is Fold:
        return Fold(v.ann, _read_back(v.e))
    return v


class _Env:
    """A type environment: (kind, binder) -> closed omega, with caches of
    the block bodies closed and the redex texts rendered under it, keyed
    by node identity (each entry keeps its node alive, so an id is never
    reused while cached).  Both are keyed by nodes of the program's blocks
    and of the wrappers' shared bodies, so neither grows with crossings."""

    __slots__ = ("map", "bodies", "texts")

    def __init__(self, mapping: dict):
        self.map = mapping
        self.bodies: dict = {}  # id(body) -> (body, closed body)
        self.texts: dict = {}  # id(node) -> (node, redex text)


_UNIT = UnitVal()  # words are immutable, so every fresh slot shares one
_AOPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}
_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _short(s: str, limit: int = 80) -> str:
    return s if len(s) <= limit else s[: limit - 2] + ".."


class Machine:
    """One program execution; step at most once per fuel unit."""

    def __init__(self, prog: Program):
        self.heap: dict = {}
        self.regs: dict = {}
        # The value stack, its top last; ``sld``/``sst`` index from the top.
        self.stack: list = []
        self.frames: list = []
        self.counter = 0
        self.steps = 0
        self._outcome: Outcome | None = None
        self._delta: dict = {}
        # Whether step renders the redex and register text.
        self._render = True
        # The type environment of the code in focus.  Source code is
        # closed and runs under the empty one: control reaches it from
        # target code only by import and halt, which switch to it.
        self._root = self.env = _Env({})
        self._envs: dict = {}  # (kind, binders, *omegas) -> _Env
        self._targets: dict = {}  # id(word) -> (word, body, _Env)
        # The term environment of the source expression in focus, or of
        # the boundary whose component the target code in focus runs in.
        self.scope: tuple | None = None
        self.returning = False
        if prog.entry == "F":
            self.focus: Tm | ISeq = prog.main
        else:
            self.focus = self._merge_component(prog.main)

    # ------------------------------------------------------------------
    # Memory helpers

    def _fresh(self, prefix: str) -> str:
        label = f"{prefix}#{self.counter}"
        self.counter += 1
        return label

    def _merge_component(self, comp: Component) -> ISeq:
        if not comp.heap:
            return comp.body
        mapping = {hb.label: self._fresh(hb.label) for hb in comp.heap}
        # One walk renames the body and every binding, so a component of
        # k bindings costs time linear in k.
        body, *values = rename_locations(
            (comp.body, *[hb.value for hb in comp.heap]), mapping)
        for hb, value in zip(comp.heap, values):
            if isinstance(value, CodeBlock):
                self.heap[mapping[hb.label]] = (hb.nu, value)
            elif isinstance(value, TupleVal):
                self.heap[mapping[hb.label]] = (hb.nu, list(value.items))
            else:
                raise _Stuck(STUCK_TYPE_CONFUSION,
                             f"heap binding {hb.label} is neither code nor "
                             f"a tuple")
        return body

    def _setreg(self, rd: str, w) -> None:
        self.regs[rd] = w
        if self._render:
            self._delta[rd] = w

    def _getreg(self, r: str):
        w = self.regs.get(r)
        if w is None:
            raise _Stuck(STUCK_UNBOUND_REGISTER, r)
        return w

    def _stack_out(self) -> tuple:
        """The stack as ``Outcome.stack`` gives it, top first."""
        return tuple(reversed(self.stack))

    def _resolve(self, u: Tm):
        """A word for an instruction operand."""
        return self._getreg(u.name) if type(u) is Reg else u

    def _jump(self, u: Tm) -> ISeq:
        """Enter the block the operand ``u`` names; returns the block's
        body.  A word written in the code is resolved once: labels are
        fresh and never rebound, so it always reaches the same block under
        the same environment.  A register's word is resolved each time,
        since it may have been made by one crossing and never seen again."""
        if type(u) is Reg:
            body, self.env = self._target(self._getreg(u.name), ())
            return body
        hit = self._targets.get(id(u))
        if hit is None:
            hit = self._targets[id(u)] = (u, *self._target(u, ()))
        self.env = hit[2]
        return hit[1]

    def _target(self, word, extra: tuple):
        """The body of the block ``word`` names, closed under its
        instantiations followed by ``extra``, and their environment."""
        omegas = extra
        while type(word) is Inst:
            omegas = (word.omega, *omegas)
            word = word.val
        if type(word) is not Loc:
            raise _Stuck(STUCK_TYPE_CONFUSION,
                         f"jump through non-code word {pretty.word_str(word)}")
        entry = self.heap.get(word.name)
        if entry is None:
            raise _Stuck(STUCK_UNBOUND_LOCATION, word.name)
        _, block = entry
        if not isinstance(block, CodeBlock):
            raise _Stuck(STUCK_TYPE_CONFUSION,
                         f"jump into the tuple {word.name}")
        if len(omegas) != len(block.binders):
            raise _Stuck(STUCK_UNINSTANTIATED,
                         f"{word.name} wants {len(block.binders)} "
                         f"instantiations, got {len(omegas)}")
        # An exported wrapper's body reads its value from its scope.
        if block.scope is not None:
            self.scope = block.scope
        if not omegas:
            return block.body, self._root
        return self._instantiate(block.body, SPELLED, block.binders, omegas)

    def _instantiate(self, body: ISeq, kind: str, binders: tuple,
                     omegas) -> tuple:
        """``body`` closed under the environment that maps ``binders`` to
        ``omegas``, and that environment.  Each binder is of the kind
        ``kind``, or of the one its spelling gives if that is SPELLED.
        The mapping depends on nothing else, so code that shares it
        (blocks with the same binders and instantiations, exported
        wrappers at one annotation, which share their body too, or the
        rests of sequences that unpack one witness) shares one
        environment, and each environment closes each body once."""
        key = (kind, binders, *omegas)
        env = self._envs.get(key)
        if env is None:
            env = self._envs[key] = _Env(
                {(kind_of_name(b) if kind == SPELLED else kind, b): om
                 for b, om in zip(binders, omegas)})
        hit = env.bodies.get(id(body))
        if hit is None:
            hit = env.bodies[id(body)] = (body, substitute(body, env.map))
        return hit[1], env

    def _resume(self, e: Tm, scope: tuple | None) -> None:
        """Evaluate ``e`` under ``scope`` next."""
        self.focus = e
        self.scope = scope
        self.returning = False

    # ------------------------------------------------------------------
    # Stepping

    def outcome(self) -> Outcome | None:
        return self._outcome

    def step(self) -> dict | None:
        """Perform one transition; returns its trace record, or None once
        the machine is terminal.  Inside an untraced ``run`` the record
        has no redex or registers_delta.  A step sets at most one
        register, so the registers_delta holds the register it set, if
        any; a rule that set two would fail here.

        The rule is looked up by the type of the node in focus: the head
        of a target sequence, a terminator, a source expression, or the
        innermost frame a value returns to.  Before the rule for the head
        of a target sequence runs, the focus moves to the rest of the
        sequence, so that instruction falls through unless its rule sets
        the focus.  A target rule returns the jump kind, and the redex is
        the node it ran; a source or return rule returns the redex text
        and the jump kind."""
        if self._outcome is not None:
            return None
        focus, env, render = self.focus, self.env, self._render
        if render:
            self._delta = {}
        t = type(focus)
        try:
            if t is Seq:
                lang = "T"
                redex = focus.head
                self.focus = focus.tail
                jump = T_RULES[type(redex)](self, redex)
            elif self.returning:
                lang = "F"
                if self.frames:
                    frame = self.frames.pop()
                    redex, jump = RETURN_RULES[type(frame)](self, frame, focus)
                else:
                    self._outcome = Outcome("f-value", value=_read_back(focus),
                                            steps=self.steps + 1,
                                            stack=self._stack_out())
                    # The final plugging still counts as a step.
                    redex, jump = "result", None
            elif t in T_RULES:
                lang = "T"
                redex = focus
                jump = T_RULES[t](self, focus)
            else:
                lang = "F"
                redex, jump = SOURCE_RULES[t](self, focus, self.scope)
        except _Stuck as s:
            self._outcome = Outcome("stuck", reason=s.reason,
                                    detail=s.detail, steps=self.steps)
            return None
        self.steps = steps = self.steps + 1
        if not render:
            return {"step": steps, "lang": lang, "jump": jump,
                    "stack_depth": len(self.stack)}
        rendered = {}
        if self._delta:
            (r, w), = self._delta.items()
            rendered[r] = pretty.word_str(w)
        return {
            "step": steps,
            "lang": lang,
            "redex": _redex(redex, env) if lang == "T" else redex,
            "jump": jump,
            "registers_delta": rendered,
            "stack_depth": len(self.stack),
        }

    def run(self, fuel: int, trace: Callable[[dict], None] | None = None) -> Outcome:
        self._render = trace is not None
        try:
            for _ in range(fuel):
                record = self.step()
                if record is None:
                    break
                if trace is not None:
                    trace(record)
        finally:
            self._render = True
        if self._outcome is None:
            return Outcome("running", steps=self.steps)
        return self._outcome


def trace_line(record: dict) -> str:
    """The JSON line of a full trace record, newline included: the six
    keys in sorted order, each string escaped as ``json.dumps`` escapes
    it, so the line equals ``json.dumps(record, sort_keys=True) + "\\n"``.
    The registers_delta is written in its own order: a step sets at most
    one register, so a record of ``Machine.step`` has at most one."""
    jump, regs = record["jump"], record["registers_delta"]
    if not regs:
        delta = ""
    elif len(regs) == 1:
        (r, w), = regs.items()
        delta = f"{_json_str(r)}: {_json_str(w)}"
    else:
        delta = ", ".join([f"{_json_str(r)}: {_json_str(w)}"
                           for r, w in regs.items()])
    return (f'{{"jump": {"null" if jump is None else _json_str(jump)}, '
            f'"lang": {_json_str(record["lang"])}, '
            f'"redex": {_json_str(record["redex"])}, '
            f'"registers_delta": {{{delta}}}, '
            f'"stack_depth": {record["stack_depth"]}, "step": {record["step"]}}}\n')


class _Rules(dict):
    """A rule table keyed by node type; a type with no rule is stuck."""

    def __init__(self, missing: str, rules: dict):
        super().__init__(rules)
        self.missing = missing

    def __missing__(self, cls):
        raise _Stuck(STUCK_TYPE_CONFUSION, self.missing + cls.__name__)


# ----------------------------------------------------------------------
# Target rules: (machine, instruction or terminator) -> jump kind.  An
# instruction's rule runs with the focus already on the rest of its
# sequence, and returns None when control falls through to it.


def _t_aop(m, ins):
    a = m._getreg(ins.rs)
    b = m._resolve(ins.u)
    if type(a) is not IntVal or type(b) is not IntVal:
        raise _Stuck(STUCK_TYPE_CONFUSION, "arithmetic on non-integers")
    m._setreg(ins.rd, IntVal(_AOPS[ins.op](a.n, b.n)))


def _t_bnz(m, ins):
    c = m._getreg(ins.r)
    if type(c) is not IntVal:
        raise _Stuck(STUCK_TYPE_CONFUSION, "branch on a non-integer")
    if c.n != 0:
        m.focus = m._jump(ins.u)
        return "jmp"


def _cell(m, r: str, access: str):
    """The heap entry the location in register ``r`` names."""
    w = m._getreg(r)
    if type(w) is not Loc:
        raise _Stuck(STUCK_TYPE_CONFUSION, f"{access} through a non-location")
    entry = m.heap.get(w.name)
    if entry is None:
        raise _Stuck(STUCK_UNBOUND_LOCATION, w.name)
    return entry


def _t_ld(m, ins):
    _, payload = _cell(m, ins.rs, "load")
    if type(payload) is not list:
        raise _Stuck(STUCK_TYPE_CONFUSION, "load from code")
    if ins.idx >= len(payload):
        raise _Stuck(STUCK_BAD_INDEX, f"ld {ins.idx}")
    m._setreg(ins.rd, payload[ins.idx])


def _t_st(m, ins):
    nu, payload = _cell(m, ins.rd, "store")
    if nu != "ref" or type(payload) is not list:
        raise _Stuck(STUCK_TYPE_CONFUSION, "store into an immutable binding")
    if ins.idx >= len(payload):
        raise _Stuck(STUCK_BAD_INDEX, f"st {ins.idx}")
    payload[ins.idx] = m._getreg(ins.rs)


def _alloc(m, ins, nu: str, prefix: str):
    """Move the top ``ins.n`` stack words, top first, into a new cell."""
    stack = m.stack
    cut = len(stack) - ins.n
    if cut < 0:
        raise _Stuck(STUCK_STACK_UNDERFLOW, f"alloc {ins.n}")
    words = stack[cut:]
    words.reverse()
    del stack[cut:]
    label = m._fresh(prefix)
    m.heap[label] = (nu, words)
    m._setreg(ins.rd, Loc(label))


def _t_ralloc(m, ins):
    _alloc(m, ins, "ref", "cell")


def _t_balloc(m, ins):
    _alloc(m, ins, "box", "tup")


def _t_mv(m, ins):
    m._setreg(ins.rd, m._resolve(ins.u))


def _t_salloc(m, ins):
    m.stack.extend([_UNIT] * ins.n)


def _t_sfree(m, ins):
    stack = m.stack
    cut = len(stack) - ins.n
    if cut < 0:
        raise _Stuck(STUCK_STACK_UNDERFLOW, f"sfree {ins.n}")
    del stack[cut:]


def _t_sld(m, ins):
    stack = m.stack
    if ins.idx >= len(stack):
        raise _Stuck(STUCK_BAD_INDEX, f"sld {ins.idx}")
    m._setreg(ins.rd, stack[-1 - ins.idx])


def _t_sst(m, ins):
    stack = m.stack
    if ins.idx >= len(stack):
        raise _Stuck(STUCK_BAD_INDEX, f"sst {ins.idx}")
    stack[-1 - ins.idx] = m._getreg(ins.rs)


def _t_unpack(m, ins):
    w = m._resolve(ins.u)
    if type(w) is not Pack:
        raise _Stuck(STUCK_TYPE_CONFUSION, "unpack of a non-package")
    m._setreg(ins.rd, w.val)
    # The binder is a type variable however it is spelled, and the code
    # in focus keeps its own environment.
    m.focus = m._instantiate(m.focus, KIND_TYPE, (ins.tv,), (w.wit,))[0]


def _t_unfold(m, ins):
    w = m._resolve(ins.u)
    if type(w) is not Fold:
        raise _Stuck(STUCK_TYPE_CONFUSION, "unfold of a non-fold")
    m._setreg(ins.rd, w.e)


def _t_protect(m, ins):
    """``protect`` only retypes the stack."""


def _t_import(m, ins):
    m.frames.append(FrImport(ins.rd, ins.ann, m.focus, m.env, m.scope))
    m.env = m._root
    m._resume(ins.body, m.scope)
    return "boundary"


def _t_jmp(m, ins):
    m.focus = m._jump(ins.u)
    return "jmp"


def _t_call(m, ins):
    # The continuation's omegas are added to the word's, so the block is
    # entered by its (label, *omegas) environment, not by the word.
    m.focus, m.env = m._target(m._resolve(ins.u), (ins.sigma0, ins.qret))
    return "call"


def _t_ret(m, ins):
    m.focus, m.env = m._target(m._getreg(ins.r), ())
    return "ret"


def _t_halt(m, ins):
    w = m._getreg(ins.reg)
    if not m.frames:
        m._outcome = Outcome("halted", value=w, stack=m._stack_out(),
                             steps=m.steps + 1)
        return "halt"
    if type(m.frames[-1]) is not FrBoundary:
        raise _Stuck(STUCK_HALT_OUTSIDE, "")
    frame = m.frames.pop()
    m.env = m._root
    try:
        v = import_value(frame.ann, w, m.heap, m._fresh)
    except TranslationError as t:
        reason = (STUCK_UNBOUND_LOCATION if t.kind == "dangling-location"
                  else STUCK_TYPE_CONFUSION)
        raise _Stuck(reason, t.message)
    m.focus = v
    m.returning = True
    return "halt"


T_RULES = _Rules("unknown instruction ", {
    Aop: _t_aop, Bnz: _t_bnz, Ld: _t_ld, St: _t_st,
    Ralloc: _t_ralloc, Balloc: _t_balloc, Mv: _t_mv,
    Salloc: _t_salloc, Sfree: _t_sfree, Sld: _t_sld, Sst: _t_sst,
    Unpack: _t_unpack, UnfoldI: _t_unfold, Protect: _t_protect,
    ImportI: _t_import,
    Jmp: _t_jmp, Call: _t_call, Ret: _t_ret, Halt: _t_halt,
})


# ----------------------------------------------------------------------
# Source rules: (machine, expression, its scope) -> (redex, None), or
# a boundary's jump kind.  A value, or an expression that is a value
# under its scope, takes one ``value`` step.


def _give(m, v):
    m.focus = v
    m.returning = True
    return "value", None


def _s_value(m, e, scope):
    v = _value(e, scope)
    if v is None:  # of these forms, only a variable can have no value
        raise _Stuck(STUCK_UNBOUND_VARIABLE, e.name)
    return _give(m, v)


def _s_binop(m, e, scope):
    # A non-tail recursion such as ``f(y - 1) * y`` keeps one such frame
    # per level: one whose operand is a value keeps the value, and no
    # scope alive.
    right = _value(e.right, scope)
    if right is None:
        m.frames.append(FrBinop(e.op, None, e.right, scope))
    else:
        m.frames.append(FrBinop(e.op, None, right, None))
    m.focus = e.left
    return f"binop {e.op}", None


def _s_if0(m, e, scope):
    m.frames.append(FrIf0(e.then, e.els, scope))
    m.focus = e.cond
    return "if0", None


def _s_app(m, e, scope):
    m.frames.append(FrApp(None, e.args, [], scope))
    m.focus = e.fn
    return "app", None


def _s_tuple(m, e, scope):
    v = _value(e, scope)
    if v is not None:
        return _give(m, v)
    m.frames.append(FrTuple(e.items, [], scope))
    m.focus = e.items[0]
    return "tuple", None


def _s_proj(m, e, scope):
    m.frames.append(FrProj(e.idx))
    m.focus = e.e
    return f"proj.{e.idx}", None


def _s_fold(m, e, scope):
    v = _value(e, scope)
    if v is not None:
        return _give(m, v)
    m.frames.append(FrFold(e.ann))
    m.focus = e.e
    return "fold", None


def _s_unfold(m, e, scope):
    m.frames.append(FrUnfold())
    m.focus = e.e
    return "unfold", None


def _s_let(m, e, scope):
    m.frames.append(FrLet(e.var, e.body, scope))
    m.focus = e.rhs
    return f"let {e.var}", None


def _s_seq(m, e, scope):
    m.frames.append(FrSeq(e.second, scope))
    m.focus = e.first
    return "seq", None


def _s_boundary(m, e, scope):
    # The component is merged as it is and runs under ``scope``: only its
    # body can name a source variable, and its imports read it there.
    body = m._merge_component(e.comp)
    m.frames.append(FrBoundary(e.ann))
    m.focus = body
    return "boundary", "boundary"


SOURCE_RULES = _Rules("not a source expression: ", {
    IntVal: _s_value, UnitVal: _s_value, _Clo: _s_value,
    Lam: _s_value, Var: _s_value, Binop: _s_binop, If0: _s_if0, App: _s_app,
    TupleVal: _s_tuple, Proj: _s_proj, Fold: _s_fold, Unfold: _s_unfold,
    Let: _s_let, SeqE: _s_seq, Boundary: _s_boundary,
})


# ----------------------------------------------------------------------
# Return rules: (machine, the innermost frame, popped, value) -> (redex,
# jump kind).


def _r_binop(m, fr, v):
    right = fr.right
    if right is not None:
        # The left operand returned: resume the right one, and keep only
        # the left value while it runs.
        m._resume(right, fr.scope)
        fr.left, fr.right, fr.scope = v, None, None
        m.frames.append(fr)
        return "binop-right", None
    left = fr.left
    if type(left) is not IntVal or type(v) is not IntVal:
        raise _Stuck(STUCK_TYPE_CONFUSION, "arithmetic on non-integers")
    m.focus = IntVal(_BINOPS[fr.op](left.n, v.n))
    return f"binop {fr.op}", None


def _r_if0(m, fr, v):
    if type(v) is not IntVal:
        raise _Stuck(STUCK_TYPE_CONFUSION, "if0 on a non-integer")
    m._resume(fr.then if v.n == 0 else fr.els, fr.scope)
    return "if0-pick", None


def _r_app(m, fr, v):
    done = fr.done
    if fr.fn is None:
        if type(v) is not _Clo and type(v) is not Lam:
            raise _Stuck(STUCK_TYPE_CONFUSION, "application of a non-function")
        fr.fn = v
    else:
        done.append(v)
    if len(done) < len(fr.args):
        m.frames.append(fr)
        m._resume(fr.args[len(done)], fr.scope)
        return "app-arg", None
    return _beta(m, fr.fn, done)


def _beta(m, fn, args: list):
    # A lambda imported from target code is closed; it has no scope.
    lam, scope = (fn.lam, fn.scope) if type(fn) is _Clo else (fn, None)
    if len(args) != len(lam.params):
        raise _Stuck(STUCK_TYPE_CONFUSION,
                     f"{len(lam.params)} parameters, {len(args)} arguments")
    for (name, _), v in zip(lam.params, args):
        scope = (name, v, scope)
    m._resume(lam.body, scope)
    return "beta", None


def _r_tuple(m, fr, v):
    done = fr.done
    done.append(v)
    if len(done) < len(fr.items):
        m.frames.append(fr)
        m._resume(fr.items[len(done)], fr.scope)
        return "tuple-item", None
    m.focus = TupleVal(tuple(done))
    return "tuple", None


def _r_proj(m, fr, v):
    if type(v) is not TupleVal:
        raise _Stuck(STUCK_TYPE_CONFUSION, "projection from a non-tuple")
    if fr.idx >= len(v.items):
        raise _Stuck(STUCK_BAD_INDEX, f"proj.{fr.idx}")
    m.focus = v.items[fr.idx]
    return f"proj.{fr.idx}", None


def _r_fold(m, fr, v):
    m.focus = Fold(fr.ann, v)
    return "fold", None


def _r_unfold(m, fr, v):
    if type(v) is not Fold:
        raise _Stuck(STUCK_TYPE_CONFUSION, "unfold of a non-fold")
    m.focus = v.e
    return "unfold", None


def _r_let(m, fr, v):
    m._resume(fr.body, (fr.var, v, fr.scope))
    return f"let {fr.var}", None


def _r_seq(m, fr, v):
    m._resume(fr.second, fr.scope)
    return "seq", None


def _r_boundary(m, fr, v):
    # Target code returns to a boundary by halting, never with a value.
    raise _Stuck(STUCK_TYPE_CONFUSION, "value under frame FrBoundary")


def _r_import(m, fr, v):
    try:
        w = export_value(fr.ann, v, m.heap, m._fresh)
    except TranslationError as t:
        raise _Stuck(STUCK_TYPE_CONFUSION, t.message)
    m._setreg(fr.rd, w)
    m.focus = fr.rest
    m.env = fr.env
    m.scope = fr.scope
    m.returning = False
    return "export", "boundary"


RETURN_RULES = _Rules("value under frame ", {
    FrBinop: _r_binop, FrIf0: _r_if0, FrApp: _r_app, FrTuple: _r_tuple,
    FrProj: _r_proj, FrFold: _r_fold, FrUnfold: _r_unfold, FrLet: _r_let,
    FrSeq: _r_seq, FrBoundary: _r_boundary, FrImport: _r_import,
})


def _redex(node, env: _Env) -> str:
    """The trace text of the target redex ``node``, run under ``env``;
    cached only under a block's environment, since code that runs under
    the empty one may be a component whose labels are renamed for each
    crossing."""
    if not env.map:
        return _redex_text(node)
    hit = env.texts.get(id(node))
    if hit is None:
        hit = env.texts[id(node)] = (node, _redex_text(node))
    return hit[1]


def _redex_text(node) -> str:
    if isinstance(node, Halt):
        return f"halt {node.reg}"
    if isinstance(node, ImportI):
        return f"import {node.rd}"
    if isinstance(node, Call):
        return _short(f"call {pretty.tm(node.u)}")
    return _short(pretty.instr(node))


def load(prog: Program) -> Machine:
    return Machine(prog)


def run_program(prog: Program, fuel: int,
                trace: Callable[[dict], None] | None = None) -> Outcome:
    return Machine(prog).run(fuel, trace)
