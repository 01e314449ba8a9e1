"""Small-step abstract machine for whole programs.

The configuration is a focus (a source expression being decomposed, a
value being plugged back into its context, or a target instruction
sequence), a stack of evaluation frames, a memory of registers, a value
stack, and a heap; a term environment for the source expression in
focus, and a type environment for the target code in focus.  Every
transition costs one unit of fuel.

Source code is evaluated with closures, as a CEK machine: a beta step or
a ``let`` extends the term environment, a persistent chain of (name,
value, parent) cells, instead of substituting into the body.  A lambda
evaluates to a closure of itself and that environment.  A bound
variable, or a tuple or fold whose leaves are values or bound variables,
is a value and takes one ``value`` step, as its substituted form did, so
steps are the same, one for one, as those of a substituting machine.
The frames that later evaluate a subterm (``FrBinopL``, ``FrIf0``,
``FrAppFn``, ``FrAppArgs``, ``FrTuple``, ``FrLet`` and ``FrSeq``) keep
the environment it needs; ``FrBinopL`` keeps its operand's value, and no
environment, when the operand is already a value.  A value is read back
to a closed term, by substituting the bindings free in each lambda, in
three places only: a component crossing a boundary is closed over the
names free in it, so its imports run under the empty environment; a
value handed to ``export_value``; and the final ``f-value``.

Types are erased: a jump does not substitute its instantiations into the
target block.  It enters the block under an environment that maps each
binder to its closed instantiation, one per (label, instantiation), and
``unpack`` and ``protect`` extend or shadow it over the rest of the
sequence.  A word is closed against the environment when an instruction
reads it as a literal operand, and an ``import`` when it runs, so every
word in a register, on the stack or in the heap, and every term handed to
the source language, is closed.  Each environment caches what it closed.

A step returns a record with its number, language, jump kind and stack
depth.  The rest of a JSON-ready trace record, the redex text and the
registers it set, is rendered only while ``run`` has a trace sink (or
for a direct call of ``step``); the text is that of the instruction with
the environment applied, so it reads as if the block had been rewritten.

Heap labels are renamed to label#k with a machine-owned counter when a
component's bindings are merged in, so repeated entry into the same
boundary cannot collide and runs are reproducible.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from typing import Callable

from .boundary import export_value, import_value
from .errors import TranslationError
from .syntax import (
    KIND_STACK,
    KIND_TERM,
    KIND_TYPE,
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
    fresh_name,
    kind_of_name,
    rename_locations,
    subst_terms,
    substitute,
    var_node,
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
class FrBinopL:
    op: str
    right: Tm  # or its value, with no scope
    scope: tuple | None


@dataclass(slots=True)
class FrBinopR:
    op: str
    left: Tm


@dataclass(slots=True)
class FrIf0:
    then: Tm
    els: Tm
    scope: tuple | None


@dataclass(slots=True)
class FrAppFn:
    args: tuple
    scope: tuple | None


@dataclass(slots=True)
class FrAppArgs:
    fn: Tm
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


def _close_terms(node, scope: tuple | None):
    """``node`` with the value of each term name free in it and bound in
    ``scope`` read back and substituted.  The values read back are
    closed, so nothing is renamed."""
    mapping = {}
    if scope is not None:
        for kind, name in free_names(node):
            if kind == KIND_TERM:
                v = _lookup(scope, name)
                if v is not None:
                    mapping[name] = _read_back(v)
    return subst_terms(node, mapping) if mapping else node


def _read_back(v):
    """The closed term for the value ``v``."""
    t = type(v)
    if t is _Clo:
        return _close_terms(v.lam, v.scope)
    if t is TupleVal:
        return TupleVal(tuple([_read_back(item) for item in v.items]))
    if t is Fold:
        return Fold(v.ann, _read_back(v.e))
    return v


class _Env:
    """A type environment: (kind, binder) -> closed omega, with caches of
    what was closed and rendered under it, keyed by node identity (each
    entry keeps its node alive, so an id is never reused while cached)."""

    __slots__ = ("map", "avoid", "closed", "texts", "under")

    def __init__(self, mapping: dict):
        self.map = mapping
        # Names free in the omegas; a binder among them gets renamed.
        self.avoid = frozenset().union(*map(free_names, mapping.values()))
        self.closed: dict = {}  # id(node) -> (node, node closed)
        self.texts: dict = {}  # id(node) -> (node, redex text)
        self.under: dict = {}  # (id(instr), value) -> (instr, env, shown)


_AOPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}
_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}
# Literal operands that carry types.
_TYPED = (Inst, Pack, Fold)


def _short(s: str, limit: int = 80) -> str:
    return s if len(s) <= limit else s[: limit - 2] + ".."


class Machine:
    """One program execution; step at most once per fuel unit."""

    def __init__(self, prog: Program):
        self.heap: dict = {}
        self.regs: dict = {}
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
        self._envs: dict = {}  # (label, *omegas) -> _Env
        # The term environment of the source expression in focus.
        self.scope: tuple | None = None
        if prog.entry == "F":
            self.mode = "F"
            self.focus: Tm | ISeq = prog.main
            self.returning = False
        else:
            self.mode = "T"
            body = self._merge_component(prog.main)
            self.focus = body
            self.returning = False

    # ------------------------------------------------------------------
    # Memory helpers

    def _fresh(self, prefix: str) -> str:
        label = f"{prefix}#{self.counter}"
        self.counter += 1
        return label

    def _merge_component(self, comp: Component) -> ISeq:
        mapping = {hb.label: self._fresh(hb.label) for hb in comp.heap}
        for hb in comp.heap:
            value = rename_locations(hb.value, mapping)
            if isinstance(value, CodeBlock):
                self.heap[mapping[hb.label]] = (hb.nu, value)
            elif isinstance(value, TupleVal):
                self.heap[mapping[hb.label]] = (hb.nu, list(value.items))
            else:
                raise _Stuck(STUCK_TYPE_CONFUSION,
                             f"heap binding {hb.label} is neither code nor "
                             f"a tuple")
        return rename_locations(comp.body, mapping)

    def _setreg(self, rd: str, w) -> None:
        self.regs[rd] = w
        self._delta[rd] = w

    def _getreg(self, r: str):
        if r not in self.regs:
            raise _Stuck(STUCK_UNBOUND_REGISTER, r)
        return self.regs[r]

    def _close(self, node):
        """``node`` with the type environment applied."""
        env = self.env
        if not env.map:
            return node
        hit = env.closed.get(id(node))
        if hit is None:
            hit = env.closed[id(node)] = (node, substitute(node, env.map))
        return hit[1]

    def _resolve(self, u: Tm):
        """A word for an instruction operand."""
        if isinstance(u, Reg):
            return self._getreg(u.name)
        if isinstance(u, _TYPED):
            return self._close(u)
        return u

    def _jump(self, word, extra=None) -> ISeq:
        """Enter the block ``word`` names, under the environment of its
        instantiations; returns the block's body."""
        omegas: list = []
        while isinstance(word, Inst):
            omegas.insert(0, word.omega)
            word = word.val
        if extra:
            omegas.extend(extra)
        if not isinstance(word, Loc):
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
        if not omegas:
            self.env = self._root
            return block.body
        key = (word.name, *omegas)
        env = self._envs.get(key)
        if env is None:
            env = self._envs[key] = _Env(
                {(kind_of_name(b), b): om
                 for b, om in zip(block.binders, omegas)})
        self.env = env
        return block.body

    def _under(self, seq: Seq, field: str, key: tuple, value):
        """The environment over the tail of ``seq``, whose head binds
        ``key`` by its ``field``: to ``value``, or, for None, to nothing
        (it shadows).  Also the head as a rewritten block would show it:
        rewriting renamed a binder that would capture a free name of an
        omega, unless the binder shadowed every name it mapped."""
        env, ins = self.env, seq.head
        hit = env.under.get((id(ins), value))
        if hit is None:
            mapping = {k: v for k, v in env.map.items() if k != key}
            shown = ins
            if mapping and key in env.avoid:
                taken = {n for _, n in free_names(seq)} | {key[1]}
                taken.update(n for _, n in env.map)
                taken.update(n for _, n in env.avoid)
                name = fresh_name(key[1], taken)
                mapping[key] = var_node(key[0], name)
                shown = replace(ins, **{field: name})
            if value is not None:
                mapping[key] = value
            hit = env.under[(id(ins), value)] = (
                ins, _Env(mapping) if mapping else self._root, shown)
        self.env = hit[1]
        return hit[2]

    # ------------------------------------------------------------------
    # Stepping

    def outcome(self) -> Outcome | None:
        return self._outcome

    def step(self) -> dict | None:
        """Perform one transition; returns its trace record, or None once
        the machine is terminal.  Inside an untraced ``run`` the record
        has no redex or registers_delta."""
        if self._outcome is not None:
            return None
        self._delta = {}
        lang = "T" if isinstance(self.focus, ISeq) else "F"
        env = self.env
        try:
            redex, jump = self._transition()
        except _Stuck as s:
            self._outcome = Outcome("stuck", reason=s.reason,
                                    detail=s.detail, steps=self.steps)
            return None
        self.steps += 1
        if not self._render:
            return {"step": self.steps, "lang": lang, "jump": jump,
                    "stack_depth": len(self.stack)}
        return {
            "step": self.steps,
            "lang": lang,
            "redex": redex if isinstance(redex, str) else _redex(redex, env),
            "jump": jump,
            "registers_delta": {r: pretty.word_str(w)
                                for r, w in sorted(self._delta.items())},
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

    # ------------------------------------------------------------------

    def _transition(self):
        """One transition; returns (redex, jump kind).  The redex is the
        trace text, or the target node to render it from."""
        focus = self.focus
        if isinstance(focus, ISeq):
            return self._step_target(focus)
        if self.returning:
            return self._step_return(focus)
        return self._step_source(focus)

    # Source-language decomposition.

    def _step_source(self, e: Tm):
        scope = self.scope
        v = _value(e, scope)
        if v is not None:
            self.focus = v
            self.returning = True
            return "value", None
        if isinstance(e, Var):
            raise _Stuck(STUCK_UNBOUND_VARIABLE, e.name)
        if isinstance(e, Binop):
            # A non-tail recursion such as ``f(y - 1) * y`` keeps one
            # such frame per level: one whose operand is a value keeps
            # the value, and no scope alive.
            right = _value(e.right, scope)
            if right is None:
                self.frames.append(FrBinopL(e.op, e.right, scope))
            else:
                self.frames.append(FrBinopL(e.op, right, None))
            self.focus = e.left
            return f"binop {e.op}", None
        if isinstance(e, If0):
            self.frames.append(FrIf0(e.then, e.els, scope))
            self.focus = e.cond
            return "if0", None
        if isinstance(e, App):
            self.frames.append(FrAppFn(e.args, scope))
            self.focus = e.fn
            return "app", None
        if isinstance(e, TupleVal):
            self.frames.append(FrTuple(e.items, [], scope))
            self.focus = e.items[0]
            return "tuple", None
        if isinstance(e, Proj):
            self.frames.append(FrProj(e.idx))
            self.focus = e.e
            return f"proj.{e.idx}", None
        if isinstance(e, Fold):
            self.frames.append(FrFold(e.ann))
            self.focus = e.e
            return "fold", None
        if isinstance(e, Unfold):
            self.frames.append(FrUnfold())
            self.focus = e.e
            return "unfold", None
        if isinstance(e, Let):
            self.frames.append(FrLet(e.var, e.body, scope))
            self.focus = e.rhs
            return f"let {e.var}", None
        if isinstance(e, SeqE):
            self.frames.append(FrSeq(e.second, scope))
            self.focus = e.first
            return "seq", None
        if isinstance(e, Boundary):
            body = self._merge_component(_close_terms(e.comp, scope))
            self.frames.append(FrBoundary(e.ann))
            self.focus = body
            self.scope = None
            return "boundary", "boundary"
        raise _Stuck(STUCK_TYPE_CONFUSION,
                     f"not a source expression: {type(e).__name__}")

    def _resume(self, e: Tm, scope: tuple | None) -> None:
        """Evaluate ``e`` under ``scope`` next."""
        self.focus = e
        self.scope = scope
        self.returning = False

    # Plugging a value back into the frame stack.

    def _step_return(self, v):
        if not self.frames:
            self._outcome = Outcome("f-value", value=_read_back(v),
                                    steps=self.steps + 1,
                                    stack=tuple(self.stack))
            # The final plugging still counts as a step.
            self.returning = False
            return "result", None
        frame = self.frames.pop()
        if isinstance(frame, FrBinopL):
            self.frames.append(FrBinopR(frame.op, v))
            self._resume(frame.right, frame.scope)
            return "binop-right", None
        if isinstance(frame, FrBinopR):
            left = frame.left
            if not (isinstance(left, IntVal) and isinstance(v, IntVal)):
                raise _Stuck(STUCK_TYPE_CONFUSION, "arithmetic on non-integers")
            self.focus = IntVal(_BINOPS[frame.op](left.n, v.n))
            return f"binop {frame.op}", None
        if isinstance(frame, FrIf0):
            if not isinstance(v, IntVal):
                raise _Stuck(STUCK_TYPE_CONFUSION, "if0 on a non-integer")
            self._resume(frame.then if v.n == 0 else frame.els, frame.scope)
            return "if0-pick", None
        if isinstance(frame, FrAppFn):
            if not isinstance(v, (_Clo, Lam)):
                raise _Stuck(STUCK_TYPE_CONFUSION,
                             "application of a non-function")
            if not frame.args:
                return self._beta(v, [])
            self.frames.append(FrAppArgs(v, frame.args, [], frame.scope))
            self._resume(frame.args[0], frame.scope)
            return "app-arg", None
        if isinstance(frame, FrAppArgs):
            done = frame.done
            done.append(v)
            if len(done) < len(frame.args):
                self.frames.append(frame)
                self._resume(frame.args[len(done)], frame.scope)
                return "app-arg", None
            return self._beta(frame.fn, done)
        if isinstance(frame, FrTuple):
            done = frame.done
            done.append(v)
            if len(done) < len(frame.items):
                self.frames.append(frame)
                self._resume(frame.items[len(done)], frame.scope)
                return "tuple-item", None
            self.focus = TupleVal(tuple(done))
            return "tuple", None
        if isinstance(frame, FrProj):
            if not isinstance(v, TupleVal):
                raise _Stuck(STUCK_TYPE_CONFUSION,
                             "projection from a non-tuple")
            if frame.idx >= len(v.items):
                raise _Stuck(STUCK_BAD_INDEX, f"proj.{frame.idx}")
            self.focus = v.items[frame.idx]
            return f"proj.{frame.idx}", None
        if isinstance(frame, FrFold):
            self.focus = Fold(frame.ann, v)
            return "fold", None
        if isinstance(frame, FrUnfold):
            if not isinstance(v, Fold):
                raise _Stuck(STUCK_TYPE_CONFUSION, "unfold of a non-fold")
            self.focus = v.e
            return "unfold", None
        if isinstance(frame, FrLet):
            self._resume(frame.body, (frame.var, v, frame.scope))
            return f"let {frame.var}", None
        if isinstance(frame, FrSeq):
            self._resume(frame.second, frame.scope)
            return "seq", None
        if isinstance(frame, FrImport):
            try:
                w = export_value(frame.ann, _read_back(v), self.heap,
                                 self._fresh)
            except TranslationError as t:
                raise _Stuck(STUCK_TYPE_CONFUSION, t.message)
            self._setreg(frame.rd, w)
            self.focus = frame.rest
            self.env = frame.env
            self.returning = False
            return "export", "boundary"
        raise _Stuck(STUCK_TYPE_CONFUSION,
                     f"value under frame {type(frame).__name__}")

    def _beta(self, fn, args: list):
        # A lambda imported from target code is closed; it has no scope.
        lam, scope = (fn.lam, fn.scope) if isinstance(fn, _Clo) else (fn, None)
        if len(args) != len(lam.params):
            raise _Stuck(STUCK_TYPE_CONFUSION,
                         f"{len(lam.params)} parameters, {len(args)} "
                         f"arguments")
        for (name, _), v in zip(lam.params, args):
            scope = (name, v, scope)
        self._resume(lam.body, scope)
        return "beta", None

    # Target-language instructions.

    def _step_target(self, iseq: ISeq):
        if isinstance(iseq, Seq):
            return self._step_instr(iseq)
        if isinstance(iseq, Jmp):
            self.focus = self._jump(self._resolve(iseq.u))
            return iseq, "jmp"
        if isinstance(iseq, Call):
            self.focus = self._jump(self._resolve(iseq.u),
                                    (self._close(iseq.sigma0),
                                     self._close(iseq.qret)))
            return iseq, "call"
        if isinstance(iseq, Ret):
            self.focus = self._jump(self._getreg(iseq.r))
            return iseq, "ret"
        if isinstance(iseq, Halt):
            w = self._getreg(iseq.reg)
            if not self.frames:
                self._outcome = Outcome("halted", value=w,
                                        stack=tuple(self.stack),
                                        steps=self.steps + 1)
                self.focus = UnitVal()
                return iseq, "halt"
            frame = self.frames[-1]
            if not isinstance(frame, FrBoundary):
                raise _Stuck(STUCK_HALT_OUTSIDE, "")
            self.frames.pop()
            self.env = self._root
            try:
                v = import_value(frame.ann, w, self.heap, self._fresh)
            except TranslationError as t:
                reason = (STUCK_UNBOUND_LOCATION
                          if t.kind == "dangling-location"
                          else STUCK_TYPE_CONFUSION)
                raise _Stuck(reason, t.message)
            self.focus = v
            self.returning = True
            return iseq, "halt"
        raise _Stuck(STUCK_TYPE_CONFUSION,
                     f"not an instruction sequence: {type(iseq).__name__}")

    def _step_instr(self, seq: Seq):
        ins, tail = seq.head, seq.tail
        jump = None
        if isinstance(ins, Aop):
            a = self._getreg(ins.rs)
            b = self._resolve(ins.u)
            if not (isinstance(a, IntVal) and isinstance(b, IntVal)):
                raise _Stuck(STUCK_TYPE_CONFUSION, "arithmetic on non-integers")
            self._setreg(ins.rd, IntVal(_AOPS[ins.op](a.n, b.n)))
            self.focus = tail
        elif isinstance(ins, Bnz):
            c = self._getreg(ins.r)
            if not isinstance(c, IntVal):
                raise _Stuck(STUCK_TYPE_CONFUSION, "branch on a non-integer")
            if c.n == 0:
                self.focus = tail
            else:
                self.focus = self._jump(self._resolve(ins.u))
                jump = "jmp"
        elif isinstance(ins, Ld):
            w = self._getreg(ins.rs)
            if not isinstance(w, Loc):
                raise _Stuck(STUCK_TYPE_CONFUSION, "load through a non-location")
            entry = self.heap.get(w.name)
            if entry is None:
                raise _Stuck(STUCK_UNBOUND_LOCATION, w.name)
            _, payload = entry
            if not isinstance(payload, list):
                raise _Stuck(STUCK_TYPE_CONFUSION, "load from code")
            if ins.idx >= len(payload):
                raise _Stuck(STUCK_BAD_INDEX, f"ld {ins.idx}")
            self._setreg(ins.rd, payload[ins.idx])
            self.focus = tail
        elif isinstance(ins, St):
            w = self._getreg(ins.rd)
            if not isinstance(w, Loc):
                raise _Stuck(STUCK_TYPE_CONFUSION, "store through a non-location")
            entry = self.heap.get(w.name)
            if entry is None:
                raise _Stuck(STUCK_UNBOUND_LOCATION, w.name)
            nu, payload = entry
            if nu != "ref" or not isinstance(payload, list):
                raise _Stuck(STUCK_TYPE_CONFUSION,
                             "store into an immutable binding")
            if ins.idx >= len(payload):
                raise _Stuck(STUCK_BAD_INDEX, f"st {ins.idx}")
            payload[ins.idx] = self._getreg(ins.rs)
            self.focus = tail
        elif isinstance(ins, (Ralloc, Balloc)):
            if len(self.stack) < ins.n:
                raise _Stuck(STUCK_STACK_UNDERFLOW, f"alloc {ins.n}")
            words = self.stack[: ins.n]
            del self.stack[: ins.n]
            nu = "ref" if isinstance(ins, Ralloc) else "box"
            label = self._fresh("cell" if nu == "ref" else "tup")
            self.heap[label] = (nu, list(words))
            self._setreg(ins.rd, Loc(label))
            self.focus = tail
        elif isinstance(ins, Mv):
            self._setreg(ins.rd, self._resolve(ins.u))
            self.focus = tail
        elif isinstance(ins, Salloc):
            self.stack[0:0] = [UnitVal() for _ in range(ins.n)]
            self.focus = tail
        elif isinstance(ins, Sfree):
            if len(self.stack) < ins.n:
                raise _Stuck(STUCK_STACK_UNDERFLOW, f"sfree {ins.n}")
            del self.stack[: ins.n]
            self.focus = tail
        elif isinstance(ins, Sld):
            if ins.idx >= len(self.stack):
                raise _Stuck(STUCK_BAD_INDEX, f"sld {ins.idx}")
            self._setreg(ins.rd, self.stack[ins.idx])
            self.focus = tail
        elif isinstance(ins, Sst):
            if ins.idx >= len(self.stack):
                raise _Stuck(STUCK_BAD_INDEX, f"sst {ins.idx}")
            self.stack[ins.idx] = self._getreg(ins.rs)
            self.focus = tail
        elif isinstance(ins, Unpack):
            w = self._resolve(ins.u)
            if not isinstance(w, Pack):
                raise _Stuck(STUCK_TYPE_CONFUSION, "unpack of a non-package")
            self._setreg(ins.rd, w.val)
            ins = self._under(seq, "tv", (KIND_TYPE, ins.tv), w.wit)
            self.focus = tail
        elif isinstance(ins, UnfoldI):
            w = self._resolve(ins.u)
            if not isinstance(w, Fold):
                raise _Stuck(STUCK_TYPE_CONFUSION, "unfold of a non-fold")
            self._setreg(ins.rd, w.e)
            self.focus = tail
        elif isinstance(ins, Protect):
            key = (KIND_STACK, ins.zeta)
            # Only a zeta that shadows a binder, or would capture a free
            # name of an omega, changes the environment.
            if key in self.env.map or key in self.env.avoid:
                ins = self._under(seq, "zeta", key, None)
            self.focus = tail
        elif isinstance(ins, ImportI):
            closed = self._close(ins)
            self.frames.append(FrImport(ins.rd, closed.ann, tail, self.env))
            self.env = self._root
            self._resume(closed.body, None)
            return ins, "boundary"
        else:
            raise _Stuck(STUCK_TYPE_CONFUSION,
                         f"unknown instruction {type(ins).__name__}")
        return ins, jump


def _redex(node, env: _Env) -> str:
    """The trace text of the target redex ``node`` under ``env``; cached
    only under a block's environment, since code that runs under the
    empty one may be a component rebuilt for each crossing."""
    if not env.map:
        return _redex_text(node, env.map)
    hit = env.texts.get(id(node))
    if hit is None:
        hit = env.texts[id(node)] = (node, _redex_text(node, env.map))
    return hit[1]


def _redex_text(node, mapping: dict) -> str:
    if isinstance(node, Ret):
        return f"ret {node.r} {{{node.r2}}}"
    if isinstance(node, Halt):
        return f"halt {node.reg}"
    if isinstance(node, ImportI):
        return _short(f"import {node.rd}")
    if isinstance(node, Jmp):
        return _short(f"jmp {pretty.tm(substitute(node.u, mapping))}")
    if isinstance(node, Call):
        return _short(f"call {pretty.tm(substitute(node.u, mapping))}")
    return _short(pretty.instr(substitute(node, mapping)))


def load(prog: Program) -> Machine:
    return Machine(prog)


def run_program(prog: Program, fuel: int,
                trace: Callable[[dict], None] | None = None) -> Outcome:
    return Machine(prog).run(fuel, trace)
