"""Small-step abstract machine for whole programs.

The configuration is a focus (a source expression being decomposed, a
value being plugged back into its context, or a target instruction
sequence), a stack of evaluation frames, and a memory of registers, a
value stack, and a heap.  Every transition costs one unit of fuel and can
emit one JSON-ready trace record.

Heap labels are renamed to label#k with a machine-owned counter when a
component's bindings are merged in, so repeated entry into the same
boundary cannot collide and runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .boundary import export_value, import_value
from .errors import TranslationError
from .syntax import (
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


# Evaluation frames.


@dataclass
class FrBinopL:
    op: str
    right: Tm


@dataclass
class FrBinopR:
    op: str
    left: Tm


@dataclass
class FrIf0:
    then: Tm
    els: Tm


@dataclass
class FrAppFn:
    args: tuple


@dataclass
class FrAppArgs:
    fn: Tm
    done: list
    pending: list


@dataclass
class FrTuple:
    done: list
    pending: list


@dataclass
class FrProj:
    idx: int


@dataclass
class FrFold:
    ann: Ty


@dataclass
class FrUnfold:
    pass


@dataclass
class FrLet:
    var: str
    body: Tm


@dataclass
class FrSeq:
    second: Tm


@dataclass
class FrBoundary:
    ann: Ty


@dataclass
class FrImport:
    rd: str
    ann: Ty
    rest: ISeq


def is_value(e: Tm) -> bool:
    if isinstance(e, (IntVal, UnitVal, Lam)):
        return True
    if isinstance(e, TupleVal):
        return all(is_value(i) for i in e.items)
    if isinstance(e, Fold):
        return is_value(e.e)
    return False


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
        self._delta[rd] = pretty.word_str(w)

    def _getreg(self, r: str):
        if r not in self.regs:
            raise _Stuck(STUCK_UNBOUND_REGISTER, r)
        return self.regs[r]

    def _resolve(self, u: Tm):
        """A word for an instruction operand."""
        if isinstance(u, Reg):
            return self._getreg(u.name)
        return u

    def _jump(self, word, extra=None) -> ISeq:
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
        body = block.body
        if omegas:
            mapping = {(kind_of_name(b), b): om
                       for b, om in zip(block.binders, omegas)}
            body = substitute(body, mapping)
        return body

    # ------------------------------------------------------------------
    # Stepping

    def outcome(self) -> Outcome | None:
        return self._outcome

    def step(self) -> dict | None:
        """Perform one transition; returns its trace record, or None once
        the machine is terminal."""
        if self._outcome is not None:
            return None
        self._delta = {}
        lang = "T" if isinstance(self.focus, ISeq) else "F"
        try:
            redex, jump = self._transition()
        except _Stuck as s:
            self._outcome = Outcome("stuck", reason=s.reason,
                                    detail=s.detail, steps=self.steps)
            return None
        self.steps += 1
        record = {
            "step": self.steps,
            "lang": lang,
            "redex": redex,
            "jump": jump,
            "registers_delta": dict(sorted(self._delta.items())),
            "stack_depth": len(self.stack),
        }
        return record

    def run(self, fuel: int, trace: Callable[[dict], None] | None = None) -> Outcome:
        for _ in range(fuel):
            record = self.step()
            if record is None:
                break
            if trace is not None:
                trace(record)
        if self._outcome is None:
            return Outcome("running", steps=self.steps)
        return self._outcome

    # ------------------------------------------------------------------

    def _transition(self):
        focus = self.focus
        if isinstance(focus, ISeq):
            return self._step_target(focus)
        if self.returning:
            return self._step_return(focus)
        return self._step_source(focus)

    # Source-language decomposition.

    def _step_source(self, e: Tm):
        if is_value(e):
            self.returning = True
            return "value", None
        if isinstance(e, Var):
            raise _Stuck(STUCK_UNBOUND_VARIABLE, e.name)
        if isinstance(e, Binop):
            self.frames.append(FrBinopL(e.op, e.right))
            self.focus = e.left
            return f"binop {e.op}", None
        if isinstance(e, If0):
            self.frames.append(FrIf0(e.then, e.els))
            self.focus = e.cond
            return "if0", None
        if isinstance(e, App):
            self.frames.append(FrAppFn(e.args))
            self.focus = e.fn
            return "app", None
        if isinstance(e, TupleVal):
            items = list(e.items)
            self.frames.append(FrTuple([], items[1:]))
            self.focus = items[0]
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
            self.frames.append(FrLet(e.var, e.body))
            self.focus = e.rhs
            return f"let {e.var}", None
        if isinstance(e, SeqE):
            self.frames.append(FrSeq(e.second))
            self.focus = e.first
            return "seq", None
        if isinstance(e, Boundary):
            body = self._merge_component(e.comp)
            self.frames.append(FrBoundary(e.ann))
            self.focus = body
            return "boundary", "boundary"
        raise _Stuck(STUCK_TYPE_CONFUSION,
                     f"not a source expression: {type(e).__name__}")

    # Plugging a value back into the frame stack.

    def _step_return(self, v: Tm):
        if not self.frames:
            self._outcome = Outcome("f-value", value=v, steps=self.steps + 1,
                                    stack=tuple(self.stack))
            # The final plugging still counts as a step.
            self.returning = False
            return "result", None
        frame = self.frames.pop()
        if isinstance(frame, FrBinopL):
            self.frames.append(FrBinopR(frame.op, v))
            self.focus = frame.right
            self.returning = False
            return "binop-right", None
        if isinstance(frame, FrBinopR):
            left = frame.left
            if not (isinstance(left, IntVal) and isinstance(v, IntVal)):
                raise _Stuck(STUCK_TYPE_CONFUSION, "arithmetic on non-integers")
            n = {"+": left.n + v.n, "-": left.n - v.n,
                 "*": left.n * v.n}[frame.op]
            self.focus = IntVal(n)
            return f"binop {frame.op}", None
        if isinstance(frame, FrIf0):
            if not isinstance(v, IntVal):
                raise _Stuck(STUCK_TYPE_CONFUSION, "if0 on a non-integer")
            self.focus = frame.then if v.n == 0 else frame.els
            self.returning = False
            return "if0-pick", None
        if isinstance(frame, FrAppFn):
            if not isinstance(v, Lam):
                raise _Stuck(STUCK_TYPE_CONFUSION,
                             "application of a non-function")
            if not frame.args:
                return self._beta(v, [])
            self.frames.append(FrAppArgs(v, [], list(frame.args[1:])))
            self.focus = frame.args[0]
            self.returning = False
            return "app-arg", None
        if isinstance(frame, FrAppArgs):
            done = frame.done + [v]
            if frame.pending:
                self.frames.append(
                    FrAppArgs(frame.fn, done, frame.pending[1:]))
                self.focus = frame.pending[0]
                self.returning = False
                return "app-arg", None
            return self._beta(frame.fn, done)
        if isinstance(frame, FrTuple):
            done = frame.done + [v]
            if frame.pending:
                self.frames.append(FrTuple(done, frame.pending[1:]))
                self.focus = frame.pending[0]
                self.returning = False
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
            self.focus = subst_terms(frame.body, {frame.var: v})
            self.returning = False
            return f"let {frame.var}", None
        if isinstance(frame, FrSeq):
            self.focus = frame.second
            self.returning = False
            return "seq", None
        if isinstance(frame, FrImport):
            try:
                w = export_value(frame.ann, v, self.heap, self._fresh)
            except TranslationError as t:
                raise _Stuck(STUCK_TYPE_CONFUSION, t.message)
            self._setreg(frame.rd, w)
            self.focus = frame.rest
            self.returning = False
            return "export", "boundary"
        raise _Stuck(STUCK_TYPE_CONFUSION,
                     f"value under frame {type(frame).__name__}")

    def _beta(self, fn: Lam, args: list):
        if len(args) != len(fn.params):
            raise _Stuck(STUCK_TYPE_CONFUSION,
                         f"{len(fn.params)} parameters, {len(args)} "
                         f"arguments")
        mapping = {name: v for (name, _), v in zip(fn.params, args)}
        self.focus = subst_terms(fn.body, mapping) if mapping else fn.body
        self.returning = False
        return "beta", None

    # Target-language instructions.

    def _step_target(self, iseq: ISeq):
        if isinstance(iseq, Seq):
            return self._step_instr(iseq.head, iseq.tail)
        if isinstance(iseq, Jmp):
            self.focus = self._jump(self._resolve(iseq.u))
            return _short(f"jmp {pretty.tm(iseq.u)}"), "jmp"
        if isinstance(iseq, Call):
            self.focus = self._jump(self._resolve(iseq.u),
                                    [iseq.sigma0, iseq.qret])
            return _short(f"call {pretty.tm(iseq.u)}"), "call"
        if isinstance(iseq, Ret):
            self.focus = self._jump(self._getreg(iseq.r))
            return f"ret {iseq.r} {{{iseq.r2}}}", "ret"
        if isinstance(iseq, Halt):
            w = self._getreg(iseq.reg)
            if not self.frames:
                self._outcome = Outcome("halted", value=w,
                                        stack=tuple(self.stack),
                                        steps=self.steps + 1)
                self.focus = UnitVal()
                return f"halt {iseq.reg}", "halt"
            frame = self.frames[-1]
            if not isinstance(frame, FrBoundary):
                raise _Stuck(STUCK_HALT_OUTSIDE, "")
            self.frames.pop()
            try:
                v = import_value(frame.ann, w, self.heap, self._fresh)
            except TranslationError as t:
                reason = (STUCK_UNBOUND_LOCATION
                          if t.kind == "dangling-location"
                          else STUCK_TYPE_CONFUSION)
                raise _Stuck(reason, t.message)
            self.focus = v
            self.returning = True
            return f"halt {iseq.reg}", "halt"
        raise _Stuck(STUCK_TYPE_CONFUSION,
                     f"not an instruction sequence: {type(iseq).__name__}")

    def _step_instr(self, ins, tail: ISeq):
        jump = None
        if isinstance(ins, Aop):
            a = self._getreg(ins.rs)
            b = self._resolve(ins.u)
            if not (isinstance(a, IntVal) and isinstance(b, IntVal)):
                raise _Stuck(STUCK_TYPE_CONFUSION, "arithmetic on non-integers")
            n = {"add": a.n + b.n, "sub": a.n - b.n,
                 "mul": a.n * b.n}[ins.op]
            self._setreg(ins.rd, IntVal(n))
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
            self.focus = substitute(tail, {(KIND_TYPE, ins.tv): w.wit})
        elif isinstance(ins, UnfoldI):
            w = self._resolve(ins.u)
            if not isinstance(w, Fold):
                raise _Stuck(STUCK_TYPE_CONFUSION, "unfold of a non-fold")
            self._setreg(ins.rd, w.e)
            self.focus = tail
        elif isinstance(ins, Protect):
            self.focus = tail
        elif isinstance(ins, ImportI):
            self.frames.append(FrImport(ins.rd, ins.ann, tail))
            self.focus = ins.body
            self.returning = False
            return _short(f"import {ins.rd}"), "boundary"
        else:
            raise _Stuck(STUCK_TYPE_CONFUSION,
                         f"unknown instruction {type(ins).__name__}")
        return _short(pretty.instr(ins)), jump


def load(prog: Program) -> Machine:
    return Machine(prog)


def run_program(prog: Program, fuel: int,
                trace: Callable[[dict], None] | None = None) -> Outcome:
    return Machine(prog).run(fuel, trace)
