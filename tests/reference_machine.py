"""A reference machine for tests: the substituting small-step semantics.

This is ``src/ftal/machine.py`` and ``src/ftal/boundary.py`` as they
stood at commit 24b1afb, trimmed to what the tests reach and merged into
one module.  It is the last machine that substitutes on every jump, beta
and ``let``: a jump substitutes its instantiations into the whole block,
and a beta substitutes its arguments into the lambda's body.  It builds
every boundary wrapper afresh, with its own copy of the type and value
translations, so that a bug in the package's caches cannot hide in both
machines at once.  Its value stack keeps its top at index 0.

It emits the same trace records and outcomes as ``ftal.machine`` and is
about 2.5x slower.  It shares only the syntax, the printer, the error
types, and the machine's ``Outcome`` record and stuck reasons with the
package.
"""

from __future__ import annotations

from collections import namedtuple

from ftal import pretty
from ftal import syntax as S
from ftal.errors import TranslationError
from ftal.machine import (
    Outcome,
    STUCK_BAD_INDEX,
    STUCK_HALT_OUTSIDE,
    STUCK_STACK_UNDERFLOW,
    STUCK_TYPE_CONFUSION,
    STUCK_UNBOUND_LOCATION,
    STUCK_UNBOUND_REGISTER,
    STUCK_UNBOUND_VARIABLE,
    STUCK_UNINSTANTIATED,
)

# -- the boundary translations ------------------------------------------------


def _names_in(*nodes) -> set:
    return {name for node in nodes for _, name in S.free_names(node)}


def _pick(base: str, avoid: set) -> str:
    return base if base not in avoid else S.fresh_name(base, avoid)


def _arrow_parts(ann):
    if isinstance(ann, S.StackArrow):
        return list(ann.params), list(ann.phi_in), list(ann.phi_out), ann.ret
    return list(ann.params), [], [], ann.ret


def _unroll(ann: S.Mu):
    return S.substitute(ann.body, {(S.KIND_TYPE, ann.var): ann})


def translate_type(t):
    """A source type's target image."""
    if isinstance(t, (S.TyUnit, S.TyInt, S.TVar)):
        return t
    if isinstance(t, S.Mu):
        return S.Mu(t.var, translate_type(t.body))
    if isinstance(t, S.TyTuple):
        return S.Box(S.TyTuple(tuple(translate_type(item) for item in t.items)))
    params, phi_in, phi_out, ret = _arrow_parts(t)
    params = [translate_type(p) for p in params]
    ret = translate_type(ret)
    avoid = _names_in(*(params + [ret] + phi_in + phi_out))
    z = _pick("z", avoid)
    eps = _pick("eps", avoid | {z})
    cont = S.Box(S.CodeT((), S.make_chi([("r1", ret)]),
                         S.stack_of(phi_out, S.SVar(z)), S.MEps(eps)))
    entry = S.stack_of(list(reversed(params)) + phi_in, S.SVar(z))
    return S.Box(S.CodeT((z, eps), S.make_chi([("ra", cont)]), entry,
                         S.MReg("ra")))


def export_value(ann, v, heap: dict, fresh):
    """A source value of type ann as a target word."""
    if isinstance(ann, S.TyInt):
        if isinstance(v, S.IntVal):
            return v
        raise TranslationError("ill-typed", "expected an integer value")
    if isinstance(ann, S.TyUnit):
        if isinstance(v, S.UnitVal):
            return v
        raise TranslationError("ill-typed", "expected the unit value")
    if isinstance(ann, S.TyTuple):
        if not isinstance(v, S.TupleVal) or len(v.items) != len(ann.items):
            raise TranslationError("ill-typed", "expected a tuple value")
        words = [export_value(it, iv, heap, fresh)
                 for it, iv in zip(ann.items, v.items)]
        label = fresh("lt")
        heap[label] = ("box", words)
        return S.Loc(label)
    if isinstance(ann, S.Mu):
        if not isinstance(v, S.Fold):
            raise TranslationError("ill-typed", "expected a folded value")
        inner = export_value(_unroll(ann), v.e, heap, fresh)
        return S.Fold(translate_type(ann), inner)
    if isinstance(ann, (S.Arrow, S.StackArrow)):
        label = fresh("lexp")
        heap[label] = ("box", _export_block(ann, v))
        return S.Loc(label)
    raise TranslationError("ill-typed", "value cannot cross at this type")


def _export_block(ann, v) -> S.CodeBlock:
    """The block that stashes the return address below the visible slots,
    imports the applied function with one shim per argument, then
    restores the return address and returns."""
    params, phi_in, phi_out, ret_ty = _arrow_parts(ann)
    n, m, mo = len(params), len(phi_in), len(phi_out)
    code = translate_type(ann).psi
    z, eps = code.binders
    cont_ty = S.chi_get(code.chi, "ra")
    args_rev = [translate_type(p) for p in reversed(params)]

    instrs = [S.Salloc(1)]
    for j in range(n + m):
        instrs += [S.Sld("r2", j + 1), S.Sst(j, "r2")]
    instrs.append(S.Sst(n + m, "ra"))

    stashed = args_rev + phi_in + [cont_ty]
    shims = []
    for i in range(1, n + 1):
        ti = translate_type(params[i - 1])
        if i < n:
            body = S.seq_of([S.Sld("r1", n - i)],
                            S.Halt(ti, S.stack_of(stashed, S.SVar(z)), "r1"))
        else:
            body = S.seq_of([S.Sld("r1", 0), S.Sfree(n)],
                            S.Halt(ti, S.stack_of(phi_in + [cont_ty], S.SVar(z)), "r1"))
        shims.append(S.Boundary(params[i - 1], S.Component(body, ())))

    zeta = _pick("zi", {z, eps})
    sigma0 = S.stack_of([cont_ty], S.SVar(z))
    instrs.append(S.ImportI("r1", sigma0, zeta, ret_ty, S.App(v, tuple(shims))))
    instrs.append(S.Sld("ra", mo))
    for j in reversed(range(mo)):
        instrs += [S.Sld("r2", j), S.Sst(j + 1, "r2")]
    instrs.append(S.Sfree(1))
    return S.CodeBlock(code.binders, code.chi, code.sigma, S.MReg("ra"),
                       S.seq_of(instrs, S.Ret("ra", "r1")))


def import_value(ann, w, heap: dict, fresh):
    """A target word at translated type ann as a source value."""
    if isinstance(ann, S.TyInt):
        if isinstance(w, S.IntVal):
            return w
        raise TranslationError("ill-typed", "expected an integer word")
    if isinstance(ann, S.TyUnit):
        if isinstance(w, S.UnitVal):
            return w
        raise TranslationError("ill-typed", "expected the unit word")
    if isinstance(ann, S.TyTuple):
        if not isinstance(w, S.Loc):
            raise TranslationError("ill-typed", "expected a heap location")
        if w.name not in heap:
            raise TranslationError("dangling-location",
                                   f"location {w.name} is not allocated")
        nu, payload = heap[w.name]
        if nu != "box" or not isinstance(payload, list):
            raise TranslationError("ill-typed",
                                   "expected an immutable tuple location")
        if len(payload) != len(ann.items):
            raise TranslationError("ill-typed", "tuple width mismatch")
        return S.TupleVal(tuple(import_value(it, word, heap, fresh)
                                for it, word in zip(ann.items, payload)))
    if isinstance(ann, S.Mu):
        if not isinstance(w, S.Fold):
            raise TranslationError("ill-typed", "expected a folded word")
        return S.Fold(ann, import_value(_unroll(ann), w.e, heap, fresh))
    if isinstance(ann, (S.Arrow, S.StackArrow)):
        return _import_lambda(ann, w, heap, fresh)
    raise TranslationError("ill-typed", "word cannot cross at this type")


def _import_lambda(ann, w, heap: dict, fresh) -> S.Lam:
    """The lambda that protects the visible prefix, exports each argument
    onto the stack, points ra at a fresh halting block and calls w."""
    params, phi_in, phi_out, ret_ty = _arrow_parts(ann)
    ret_plus = translate_type(ret_ty)
    avoid = _names_in(ann, w)
    z = _pick("z", avoid)
    zeta = _pick("zi", avoid | {z})

    instrs = [S.Protect(tuple(phi_in), z)]
    pushed = []
    for i, ti in enumerate(params, 1):
        sigma0 = S.stack_of(pushed + phi_in, S.SVar(z))
        instrs += [S.ImportI("r1", sigma0, zeta, ti, S.Var(f"x{i}")),
                   S.Salloc(1), S.Sst(0, "r1")]
        pushed.insert(0, translate_type(ti))

    zend = _pick("z", _names_in(*phi_out, ret_plus))
    end_sigma = S.stack_of(phi_out, S.SVar(zend))
    end_label = fresh("lend")
    heap[end_label] = ("box", S.CodeBlock(
        (zend,), S.make_chi([("r1", ret_plus)]), end_sigma,
        S.MHalt(ret_plus, end_sigma), S.Halt(ret_plus, end_sigma, "r1")))
    instrs.append(S.Mv("ra", S.Inst(S.Loc(end_label), S.SVar(z))))
    out_sigma = S.stack_of(phi_out, S.SVar(z))
    comp = S.Component(S.seq_of(instrs, S.Call(
        w, S.SVar(z), S.MHalt(ret_plus, out_sigma))), ())
    stack = (tuple(phi_in), tuple(phi_out)) if isinstance(ann, S.StackArrow) else None
    return S.Lam(tuple((f"x{i}", t) for i, t in enumerate(params, 1)),
                 S.Boundary(ret_ty, comp), stack)


# -- the machine --------------------------------------------------------------


class _Stuck(Exception):
    def __init__(self, reason: str, detail: str = ""):
        super().__init__(reason)
        self.reason, self.detail = reason, detail


# Evaluation frames; a frame's pending subterms are closed.
FrBinopL = namedtuple("FrBinopL", "op right")
FrBinopR = namedtuple("FrBinopR", "op left")
FrIf0 = namedtuple("FrIf0", "then els")
FrAppFn = namedtuple("FrAppFn", "args")
FrAppArgs = namedtuple("FrAppArgs", "fn done pending")
FrTuple = namedtuple("FrTuple", "done pending")
FrProj = namedtuple("FrProj", "idx")
FrFold = namedtuple("FrFold", "ann")
FrUnfold = namedtuple("FrUnfold", "")
FrLet = namedtuple("FrLet", "var body")
FrSeq = namedtuple("FrSeq", "second")
FrBoundary = namedtuple("FrBoundary", "ann")
FrImport = namedtuple("FrImport", "rd ann rest")


def is_value(e) -> bool:
    if isinstance(e, (S.IntVal, S.UnitVal, S.Lam)):
        return True
    if isinstance(e, S.TupleVal):
        return all(is_value(i) for i in e.items)
    if isinstance(e, S.Fold):
        return is_value(e.e)
    return False


def _short(s: str, limit: int = 80) -> str:
    return s if len(s) <= limit else s[: limit - 2] + ".."


_AOPS = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
         "mul": lambda a, b: a * b}
_BINOPS = {"+": _AOPS["add"], "-": _AOPS["sub"], "*": _AOPS["mul"]}


class Machine:
    """One program execution, substituting on every jump and beta."""

    def __init__(self, prog: S.Program):
        self.heap: dict = {}
        self.regs: dict = {}
        self.stack: list = []  # top at index 0
        self.frames: list = []
        self.counter = 0
        self.steps = 0
        self.outcome: Outcome | None = None
        self.delta: dict = {}
        self.returning = False
        if prog.entry == "F":
            self.focus = prog.main
        else:
            self.focus = self._merge_component(prog.main)

    def _fresh(self, prefix: str) -> str:
        label = f"{prefix}#{self.counter}"
        self.counter += 1
        return label

    def _merge_component(self, comp: S.Component) -> S.ISeq:
        mapping = {hb.label: self._fresh(hb.label) for hb in comp.heap}
        for hb in comp.heap:
            value = S.rename_locations(hb.value, mapping)
            if isinstance(value, S.CodeBlock):
                self.heap[mapping[hb.label]] = (hb.nu, value)
            else:
                self.heap[mapping[hb.label]] = (hb.nu, list(value.items))
        return S.rename_locations(comp.body, mapping)

    def _setreg(self, rd: str, w) -> None:
        self.regs[rd] = w
        self.delta[rd] = pretty.word_str(w)

    def _getreg(self, r: str):
        if r not in self.regs:
            raise _Stuck(STUCK_UNBOUND_REGISTER, r)
        return self.regs[r]

    def _resolve(self, u):
        """The word the operand u denotes, as TAL's R-hat reads it: the
        register at its core, bare or under any Inst, Pack or Fold, is
        read and the shells are rebuilt around its word."""
        if isinstance(u, S.Reg):
            return self._getreg(u.name)
        if isinstance(u, S.Inst):
            return S.Inst(self._resolve(u.val), u.omega)
        if isinstance(u, S.Pack):
            return S.Pack(u.wit, self._resolve(u.val), u.ann)
        if isinstance(u, S.Fold):
            return S.Fold(u.ann, self._resolve(u.e))
        return u

    def _jump(self, word, extra=()) -> S.ISeq:
        """The body of the block word names, with its instantiations (and
        extra) substituted for its binders."""
        omegas: list = []
        while isinstance(word, S.Inst):
            omegas.insert(0, word.omega)
            word = word.val
        omegas.extend(extra)
        if not isinstance(word, S.Loc):
            raise _Stuck(STUCK_TYPE_CONFUSION,
                         f"jump through non-code word {pretty.word_str(word)}")
        entry = self.heap.get(word.name)
        if entry is None:
            raise _Stuck(STUCK_UNBOUND_LOCATION, word.name)
        block = entry[1]
        if not isinstance(block, S.CodeBlock):
            raise _Stuck(STUCK_TYPE_CONFUSION, f"jump into the tuple {word.name}")
        if len(omegas) != len(block.binders):
            raise _Stuck(STUCK_UNINSTANTIATED,
                         f"{word.name} wants {len(block.binders)} "
                         f"instantiations, got {len(omegas)}")
        mapping = {(S.kind_of_name(b), b): om
                   for b, om in zip(block.binders, omegas)}
        return S.substitute(block.body, mapping)

    def step(self) -> dict | None:
        """One transition and its full trace record, or None once the
        machine is terminal."""
        if self.outcome is not None:
            return None
        self.delta = {}
        focus = self.focus
        lang = "T" if isinstance(focus, S.ISeq) else "F"
        try:
            if isinstance(focus, S.ISeq):
                redex, jump = self._step_target(focus)
            elif self.returning:
                redex, jump = self._step_return(focus)
            else:
                redex, jump = self._step_source(focus)
        except _Stuck as s:
            self.outcome = Outcome("stuck", reason=s.reason, detail=s.detail,
                                   steps=self.steps)
            return None
        self.steps += 1
        return {"step": self.steps, "lang": lang, "redex": redex,
                "jump": jump, "registers_delta": dict(sorted(self.delta.items())),
                "stack_depth": len(self.stack)}

    def run(self, fuel: int, trace=None) -> Outcome:
        for _ in range(fuel):
            record = self.step()
            if record is None:
                break
            if trace is not None:
                trace(record)
        return self.outcome or Outcome("running", steps=self.steps)

    # Source-language decomposition.

    def _push(self, frame, focus):
        self.frames.append(frame)
        self.focus = focus

    def _step_source(self, e):
        if is_value(e):
            self.returning = True
            return "value", None
        if isinstance(e, S.Var):
            raise _Stuck(STUCK_UNBOUND_VARIABLE, e.name)
        if isinstance(e, S.Binop):
            self._push(FrBinopL(e.op, e.right), e.left)
            return f"binop {e.op}", None
        if isinstance(e, S.If0):
            self._push(FrIf0(e.then, e.els), e.cond)
            return "if0", None
        if isinstance(e, S.App):
            self._push(FrAppFn(e.args), e.fn)
            return "app", None
        if isinstance(e, S.TupleVal):
            self._push(FrTuple([], list(e.items[1:])), e.items[0])
            return "tuple", None
        if isinstance(e, S.Proj):
            self._push(FrProj(e.idx), e.e)
            return f"proj.{e.idx}", None
        if isinstance(e, S.Fold):
            self._push(FrFold(e.ann), e.e)
            return "fold", None
        if isinstance(e, S.Unfold):
            self._push(FrUnfold(), e.e)
            return "unfold", None
        if isinstance(e, S.Let):
            self._push(FrLet(e.var, e.body), e.rhs)
            return f"let {e.var}", None
        if isinstance(e, S.SeqE):
            self._push(FrSeq(e.second), e.first)
            return "seq", None
        if isinstance(e, S.Boundary):
            self._push(FrBoundary(e.ann), self._merge_component(e.comp))
            return "boundary", "boundary"
        raise _Stuck(STUCK_TYPE_CONFUSION,
                     f"not a source expression: {type(e).__name__}")

    # Plugging a value back into the frame stack.

    def _resume(self, e):
        self.focus = e
        self.returning = False

    def _step_return(self, v):
        if not self.frames:
            self.outcome = Outcome("f-value", value=v, steps=self.steps + 1,
                                   stack=tuple(self.stack))
            self.returning = False
            return "result", None
        frame = self.frames.pop()
        if isinstance(frame, FrBinopL):
            self.frames.append(FrBinopR(frame.op, v))
            self._resume(frame.right)
            return "binop-right", None
        if isinstance(frame, FrBinopR):
            if not (isinstance(frame.left, S.IntVal) and isinstance(v, S.IntVal)):
                raise _Stuck(STUCK_TYPE_CONFUSION, "arithmetic on non-integers")
            self.focus = S.IntVal(_BINOPS[frame.op](frame.left.n, v.n))
            return f"binop {frame.op}", None
        if isinstance(frame, FrIf0):
            if not isinstance(v, S.IntVal):
                raise _Stuck(STUCK_TYPE_CONFUSION, "if0 on a non-integer")
            self._resume(frame.then if v.n == 0 else frame.els)
            return "if0-pick", None
        if isinstance(frame, FrAppFn):
            if not isinstance(v, S.Lam):
                raise _Stuck(STUCK_TYPE_CONFUSION, "application of a non-function")
            if not frame.args:
                return self._beta(v, [])
            self.frames.append(FrAppArgs(v, [], list(frame.args[1:])))
            self._resume(frame.args[0])
            return "app-arg", None
        if isinstance(frame, FrAppArgs):
            done = frame.done + [v]
            if frame.pending:
                self.frames.append(FrAppArgs(frame.fn, done, frame.pending[1:]))
                self._resume(frame.pending[0])
                return "app-arg", None
            return self._beta(frame.fn, done)
        if isinstance(frame, FrTuple):
            done = frame.done + [v]
            if frame.pending:
                self.frames.append(FrTuple(done, frame.pending[1:]))
                self._resume(frame.pending[0])
                return "tuple-item", None
            self.focus = S.TupleVal(tuple(done))
            return "tuple", None
        if isinstance(frame, FrProj):
            if not isinstance(v, S.TupleVal):
                raise _Stuck(STUCK_TYPE_CONFUSION, "projection from a non-tuple")
            if frame.idx >= len(v.items):
                raise _Stuck(STUCK_BAD_INDEX, f"proj.{frame.idx}")
            self.focus = v.items[frame.idx]
            return f"proj.{frame.idx}", None
        if isinstance(frame, FrFold):
            self.focus = S.Fold(frame.ann, v)
            return "fold", None
        if isinstance(frame, FrUnfold):
            if not isinstance(v, S.Fold):
                raise _Stuck(STUCK_TYPE_CONFUSION, "unfold of a non-fold")
            self.focus = v.e
            return "unfold", None
        if isinstance(frame, FrLet):
            self._resume(S.subst_terms(frame.body, {frame.var: v}))
            return f"let {frame.var}", None
        if isinstance(frame, FrSeq):
            self._resume(frame.second)
            return "seq", None
        if isinstance(frame, FrImport):
            try:
                w = export_value(frame.ann, v, self.heap, self._fresh)
            except TranslationError as t:
                raise _Stuck(STUCK_TYPE_CONFUSION, t.message)
            self._setreg(frame.rd, w)
            self._resume(frame.rest)
            return "export", "boundary"
        raise _Stuck(STUCK_TYPE_CONFUSION,
                     f"value under frame {type(frame).__name__}")

    def _beta(self, fn: S.Lam, args: list):
        if len(args) != len(fn.params):
            raise _Stuck(STUCK_TYPE_CONFUSION,
                         f"{len(fn.params)} parameters, {len(args)} arguments")
        mapping = {name: v for (name, _), v in zip(fn.params, args)}
        self._resume(S.subst_terms(fn.body, mapping) if mapping else fn.body)
        return "beta", None

    # Target-language instructions.

    def _step_target(self, iseq):
        if isinstance(iseq, S.Seq):
            return self._step_instr(iseq.head, iseq.tail)
        if isinstance(iseq, S.Jmp):
            self.focus = self._jump(self._resolve(iseq.u))
            return _short(f"jmp {pretty.tm(iseq.u)}"), "jmp"
        if isinstance(iseq, S.Call):
            self.focus = self._jump(self._resolve(iseq.u), (iseq.sigma0, iseq.qret))
            return _short(f"call {pretty.tm(iseq.u)}"), "call"
        if isinstance(iseq, S.Ret):
            self.focus = self._jump(self._getreg(iseq.r))
            return f"ret {iseq.r} {{{iseq.r2}}}", "ret"
        w = self._getreg(iseq.reg)
        if not self.frames:
            self.outcome = Outcome("halted", value=w, stack=tuple(self.stack),
                                   steps=self.steps + 1)
            self.focus = S.UnitVal()
            return f"halt {iseq.reg}", "halt"
        if not isinstance(self.frames[-1], FrBoundary):
            raise _Stuck(STUCK_HALT_OUTSIDE, "")
        frame = self.frames.pop()
        try:
            v = import_value(frame.ann, w, self.heap, self._fresh)
        except TranslationError as t:
            raise _Stuck(STUCK_UNBOUND_LOCATION if t.kind == "dangling-location"
                         else STUCK_TYPE_CONFUSION, t.message)
        self.focus = v
        self.returning = True
        return f"halt {iseq.reg}", "halt"

    def _alloc(self, n: int, nu: str, prefix: str):
        if len(self.stack) < n:
            raise _Stuck(STUCK_STACK_UNDERFLOW, f"alloc {n}")
        words = self.stack[:n]
        del self.stack[:n]
        label = self._fresh(prefix)
        self.heap[label] = (nu, words)
        return S.Loc(label)

    def _cell(self, r: str, access: str):
        w = self._getreg(r)
        if not isinstance(w, S.Loc):
            raise _Stuck(STUCK_TYPE_CONFUSION, f"{access} through a non-location")
        entry = self.heap.get(w.name)
        if entry is None:
            raise _Stuck(STUCK_UNBOUND_LOCATION, w.name)
        return entry

    def _step_instr(self, ins, tail):
        jump = None
        self.focus = tail
        if isinstance(ins, S.Aop):
            a, b = self._getreg(ins.rs), self._resolve(ins.u)
            if not (isinstance(a, S.IntVal) and isinstance(b, S.IntVal)):
                raise _Stuck(STUCK_TYPE_CONFUSION, "arithmetic on non-integers")
            self._setreg(ins.rd, S.IntVal(_AOPS[ins.op](a.n, b.n)))
        elif isinstance(ins, S.Bnz):
            c = self._getreg(ins.r)
            if not isinstance(c, S.IntVal):
                raise _Stuck(STUCK_TYPE_CONFUSION, "branch on a non-integer")
            if c.n != 0:
                self.focus = self._jump(self._resolve(ins.u))
                jump = "jmp"
        elif isinstance(ins, S.Ld):
            payload = self._cell(ins.rs, "load")[1]
            if not isinstance(payload, list):
                raise _Stuck(STUCK_TYPE_CONFUSION, "load from code")
            if ins.idx >= len(payload):
                raise _Stuck(STUCK_BAD_INDEX, f"ld {ins.idx}")
            self._setreg(ins.rd, payload[ins.idx])
        elif isinstance(ins, S.St):
            nu, payload = self._cell(ins.rd, "store")
            if nu != "ref" or not isinstance(payload, list):
                raise _Stuck(STUCK_TYPE_CONFUSION, "store into an immutable binding")
            if ins.idx >= len(payload):
                raise _Stuck(STUCK_BAD_INDEX, f"st {ins.idx}")
            payload[ins.idx] = self._getreg(ins.rs)
        elif isinstance(ins, S.Ralloc):
            self._setreg(ins.rd, self._alloc(ins.n, "ref", "cell"))
        elif isinstance(ins, S.Balloc):
            self._setreg(ins.rd, self._alloc(ins.n, "box", "tup"))
        elif isinstance(ins, S.Mv):
            self._setreg(ins.rd, self._resolve(ins.u))
        elif isinstance(ins, S.Salloc):
            self.stack[0:0] = [S.UnitVal()] * ins.n
        elif isinstance(ins, S.Sfree):
            if len(self.stack) < ins.n:
                raise _Stuck(STUCK_STACK_UNDERFLOW, f"sfree {ins.n}")
            del self.stack[: ins.n]
        elif isinstance(ins, S.Sld):
            if ins.idx >= len(self.stack):
                raise _Stuck(STUCK_BAD_INDEX, f"sld {ins.idx}")
            self._setreg(ins.rd, self.stack[ins.idx])
        elif isinstance(ins, S.Sst):
            if ins.idx >= len(self.stack):
                raise _Stuck(STUCK_BAD_INDEX, f"sst {ins.idx}")
            self.stack[ins.idx] = self._getreg(ins.rs)
        elif isinstance(ins, S.Unpack):
            w = self._resolve(ins.u)
            if not isinstance(w, S.Pack):
                raise _Stuck(STUCK_TYPE_CONFUSION, "unpack of a non-package")
            self._setreg(ins.rd, w.val)
            self.focus = S.substitute(tail, {(S.KIND_TYPE, ins.tv): w.wit})
        elif isinstance(ins, S.UnfoldI):
            w = self._resolve(ins.u)
            if not isinstance(w, S.Fold):
                raise _Stuck(STUCK_TYPE_CONFUSION, "unfold of a non-fold")
            self._setreg(ins.rd, w.e)
        elif isinstance(ins, S.ImportI):
            self.frames.append(FrImport(ins.rd, ins.ann, tail))
            self._resume(ins.body)
            return f"import {ins.rd}", "boundary"
        elif not isinstance(ins, S.Protect):
            raise _Stuck(STUCK_TYPE_CONFUSION,
                         f"unknown instruction {type(ins).__name__}")
        return _short(pretty.instr(ins)), jump
