"""Type checking for programs, components, instruction sequences, and
expressions.

Context shapes used throughout:

- psi: dict mapping heap labels to (nu, type) where nu is "box" or "ref"
  and the type is a TyTuple or CodeT.
- delta: tuple of (kind, name) pairs for the type, stack, and marker
  variables in scope.
- gamma: dict mapping term variables to types.
- chi: dict mapping registers to types.
- sigma: a stack type.
- q: a return marker, or None at a halting position whose marker is not
  yet inferred.

Well-formedness of types, stacks and markers is one check, ``wf``. Scope
comes from the binders declared in ``syntax.SCHEMA``, through the walk
that ``free_names`` and ``alpha_equal`` read as well:
``syntax.subterms`` pairs every sub-node with the names bound around it,
and a type, stack or marker name that neither those nor delta bind is
out of scope. The shape rules (a binder's kind,
what a cell holds, a code type's binders and marker) are checked on every
sub-node of the same walk.

A component's body starts with q None, and the first branch, jump, call
or halt that names a halting marker fixes it; check_instruction_sequence
returns the marker a sequence ends under, with the stack each protect
hid put back for its variable, and check_component reads the
component's (tau, sigma') off it. A halting marker is checked when a
sequence starts, or when a branch fixes it, and not again at each
instruction: delta only grows along a sequence, so a marker well formed
at its start stays so. Register and stack-slot markers are checked at
every instruction, because the registers and the stack they point into
change. A stack rule reads only the slots it names, through ``_top``,
and keeps the stack below them as it is, however deep.
"""

from __future__ import annotations

from collections import Counter
from heapq import heappop, heappush

from .boundary import translate_type
from .errors import CheckError, KindError
from . import pretty
from .syntax import (
    KIND_LOC,
    KIND_MARKER,
    KIND_STACK,
    KIND_TYPE,
    SCHEMA,
    Aop,
    App,
    Arrow,
    Balloc,
    Binop,
    Bnz,
    Boundary,
    Box,
    Call,
    CodeBlock,
    CodeT,
    Component,
    Exists,
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
    MEps,
    MHalt,
    MIdx,
    Mk,
    MOut,
    MReg,
    Mu,
    Mv,
    Pack,
    Program,
    Proj,
    Protect,
    Ralloc,
    Ref,
    Reg,
    Ret,
    SeqE,
    Salloc,
    SCons,
    Seq,
    Sfree,
    Sld,
    SNil,
    Sst,
    St,
    StackArrow,
    Stk,
    SVar,
    Tm,
    TupleVal,
    TVar,
    Ty,
    TyInt,
    TyTuple,
    TyUnit,
    UnitVal,
    Unfold,
    UnfoldI,
    Unpack,
    Var,
    alpha_equal,
    arrow_parts,
    binders,
    free_names,
    fresh_name,
    instantiate,
    kind_of_name,
    stack_of,
    stack_parts,
    subterms,
    substitute,
    var_node,
)

Delta = tuple

# The node sort of each type-level namespace, and the namespace of each
# type-level variable node.
_SORTS = {KIND_TYPE: Ty, KIND_STACK: Stk, KIND_MARKER: Mk}
_VARS = {cls: sc.var for cls, sc in SCHEMA.items() if sc.var in _SORTS}


def _is_reg_marker(q, reg: str) -> bool:
    return isinstance(q, MReg) and q.reg == reg


def _err(code: str, message: str, where: str = "") -> CheckError:
    return CheckError(code, message, where)


def _wf_as(code: str, prefix: str, delta: Delta, *nodes) -> None:
    """wf, reporting a fault under code with prefix before its message."""
    try:
        wf(delta, *nodes)
    except KindError as e:
        raise _err(code, prefix + e.message)


# ---------------------------------------------------------------------------
# Well-formedness


def check_code_binders(binders) -> None:
    """Reject binder lists with repeats or more than one stack or marker
    variable; raises KindError."""
    seen = set()
    stacks = 0
    markers = 0
    for b in binders:
        if b in seen:
            raise KindError(f"repeated binder {b}")
        seen.add(b)
        k = kind_of_name(b)
        if k == KIND_STACK:
            stacks += 1
        elif k == KIND_MARKER:
            markers += 1
    if stacks > 1:
        raise KindError("code type abstracts more than one stack variable")
    if markers > 1:
        raise KindError("code type abstracts more than one marker variable")


def wf(delta: Delta, *nodes) -> None:
    """Check types, stacks and markers against delta; raises KindError.

    Each node is walked in pre-order. A type, stack or marker name is in
    scope when delta or a binder around it binds it. A Mu or Exists must
    bind a type name, a cell must hold a tuple (or code, when boxed), and
    a code type's binders must pass check_code_binders. A code type's
    marker must not be out, and a register or index marker must point at
    a continuation; that is reported after any fault inside the code type.
    """
    for node in nodes:
        for n, bound, _ in subterms(node):
            cls = type(n)
            kind = _VARS.get(cls)
            if kind is not None:
                if (kind, n.name) not in bound and (kind, n.name) not in delta:
                    raise KindError(f"{kind} variable {n.name} is not in scope")
            elif cls is CodeT:
                check_code_binders(n.binders)
                if isinstance(n.q, MOut):
                    fault = "out marker inside a code type"
                elif isinstance(n.q, (MReg, MIdx)) and \
                        continuation_of(n.q, dict(n.chi), n.sigma) is None:
                    fault = (f"marker {pretty.mk(n.q)} does not point at a "
                             "continuation")
                else:
                    continue
                wf(delta + tuple(bound) + tuple(binders(n)),
                   *(t for _, t in n.chi), n.sigma)
                raise KindError(fault)
            elif cls is Box:
                if not isinstance(n.psi, (TyTuple, CodeT)):
                    raise KindError("boxed values are tuples or code")
            elif cls in (Mu, Exists):
                if kind_of_name(n.var) != KIND_TYPE:
                    raise KindError(f"{n.var} cannot bind a type")
            elif cls is Ref:
                if not isinstance(n.psi, TyTuple):
                    raise KindError("mutable cells hold tuples only")


# ---------------------------------------------------------------------------
# Markers


def _top(sigma: Stk, k: int, what: str = ""):
    """sigma's top k slot types, top first, and the stack below them; only
    those cells are read. A stack showing fewer slots gives all it shows,
    or, where what names an instruction, that instruction's E-SEQ fault."""
    items = []
    while len(items) < k and isinstance(sigma, SCons):
        items.append(sigma.head)
        sigma = sigma.tail
    if what and len(items) < k:
        raise _err("E-SEQ", f"{what} needs {k} visible slots, "
                            f"the stack shows {len(items)}")
    return items, sigma


def continuation_of(q, chi: dict, sigma: Stk) -> CodeT | None:
    """The code type a register or index marker points at, unboxed.

    Defined when the marked slot holds box code with no binders and a
    single register in its precondition; None otherwise.
    """
    if isinstance(q, MReg):
        t = chi.get(q.reg)
    elif isinstance(q, MIdx):
        top, _ = _top(sigma, q.idx + 1)
        if q.idx >= len(top):
            return None
        t = top[q.idx]
    else:
        return None
    if isinstance(t, Box) and isinstance(t.psi, CodeT):
        c = t.psi
        if not c.binders and len(c.chi) == 1:
            return c
    return None


def wf_return_marker(delta: Delta, chi: dict, sigma: Stk, q) -> None:
    """Check that the marker q is usable at an instruction; raises
    E-WFRET."""
    if isinstance(q, MHalt):
        _wf_as("E-WFRET", "halting marker is ill-formed: ", delta, q)
        return
    if isinstance(q, MOut):
        raise _err("E-WFRET", "out marker at an instruction")
    if isinstance(q, MEps):
        raise _err("E-WFRET",
                   f"marker variable {q.name} reaches an instruction")
    if isinstance(q, (MReg, MIdx)):
        if continuation_of(q, chi, sigma) is None:
            raise _err("E-WFRET",
                       f"marker {pretty.mk(q)} does not point at a continuation")
        return
    raise _err("E-WFRET", f"not a marker: {q!r}")


def regfile_subtype(chi: dict, req: dict) -> bool:
    """Width subtyping: chi provides every register req demands, at equal
    types."""
    for r, t in req.items():
        have = chi.get(r)
        if have is None or not alpha_equal(have, t):
            return False
    return True


# ---------------------------------------------------------------------------
# Word-level values


def check_small_value(psi: dict, delta: Delta, chi: dict, u: Tm) -> Ty:
    if isinstance(u, Reg):
        t = chi.get(u.name)
        if t is None:
            raise _err("E-VAL", f"register {u.name} holds no value")
        return t
    if isinstance(u, IntVal):
        return TyInt()
    if isinstance(u, UnitVal):
        return TyUnit()
    if isinstance(u, Loc):
        ent = psi.get(u.name)
        if ent is None:
            raise _err("E-VAL", f"label {u.name} is not bound in the heap")
        nu, t = ent
        return Ref(t) if nu == "ref" else Box(t)
    if isinstance(u, Pack):
        if not isinstance(u.ann, Exists):
            raise _err("E-VAL", "pack annotation must be existential")
        wf(delta, u.ann, u.wit)
        tv = check_small_value(psi, delta, chi, u.val)
        if not alpha_equal(tv, instantiate(u.ann, u.wit)):
            raise _err("E-VAL", "packed value does not match its annotation")
        return u.ann
    if isinstance(u, Fold):
        if not isinstance(u.ann, Mu):
            raise _err("E-VAL", "fold annotation must be recursive")
        wf(delta, u.ann)
        tv = check_small_value(psi, delta, chi, u.e)
        if not alpha_equal(tv, instantiate(u.ann, u.ann)):
            raise _err("E-VAL", "folded value does not match its annotation")
        return u.ann
    if isinstance(u, Inst):
        t = check_small_value(psi, delta, chi, u.val)
        if not (isinstance(t, Box) and isinstance(t.psi, CodeT)
                and t.psi.binders):
            raise _err("E-VAL", "instantiation of a non-polymorphic value")
        code = t.psi
        head = code.binders[0]
        hk = kind_of_name(head)
        if not isinstance(u.omega, _SORTS[hk]):
            raise _err("E-VAL",
                       f"instantiation kind mismatch for binder {head}")
        wf(delta, u.omega)
        rest = CodeT(tuple(code.binders[1:]), code.chi, code.sigma, code.q)
        out = Box(substitute(rest, {(hk, head): u.omega}))
        wf(delta, out)
        return out
    raise _err("E-VAL", "not a word-level value")


# ---------------------------------------------------------------------------
# Instruction sequences


def _shift_pop(q, n: int, verb: str):
    if isinstance(q, MIdx):
        if q.idx < n:
            raise _err("E-SEQ", f"{verb} the marker slot")
        return MIdx(q.idx - n)
    return q


def _slot(code: str, what: str, items: tuple, idx: int) -> Ty:
    if idx >= len(items):
        raise _err(code, f"{what} index {idx} outside a {len(items)}-tuple")
    return items[idx]


def _require_int(t: Ty, what: str) -> None:
    if not isinstance(t, TyInt):
        raise _err("E-SEQ", f"{what} must be an integer, got {pretty.ty(t)}")


def _guard(q, rd: str, what: str) -> None:
    """Refuse an instruction that writes the register holding the marker."""
    if _is_reg_marker(q, rd):
        raise _err("E-SEQ", f"{what} would overwrite the marker register")


def _open(delta: Delta, kind: str, name: str, scope):
    """Bind name over scope: returns the extended delta, the name, and the
    scope, with the name made fresh in scope if it would shadow one
    already in delta."""
    if (kind, name) in delta:
        fresh = fresh_name(name, {n for _, n in delta})
        scope = substitute(scope, {(kind, name): var_node(kind, fresh)})
        name = fresh
    return delta + ((kind, name),), name, scope


def _check_target(psi, delta, chi, sigma, q, tau, u, what: str) -> Mk:
    """The rule jmp and bnz share: u is fully instantiated code that takes
    the current stack and registers, and the current marker, which a
    halting position (q None) adopts from it. Returns the marker."""
    tu = check_small_value(psi, delta, chi, u)
    if not (isinstance(tu, Box) and isinstance(tu.psi, CodeT)):
        raise _err("E-SEQ", f"{what} is not code")
    c = tu.psi
    if c.binders:
        raise _err("E-SEQ", f"{what} is not fully instantiated")
    if not alpha_equal(c.sigma, sigma):
        raise _err("E-SEQ",
                   f"{what} expects stack {pretty.stk(c.sigma)}, "
                   f"current is {pretty.stk(sigma)}")
    if q is None:
        if not isinstance(c.q, MHalt):
            raise _err("E-SEQ",
                       f"{what} marker {pretty.mk(c.q)} cannot be adopted "
                       "at a halting position")
        q = _adopt(tau, c.q, what + " halts at {}, expected {}")
    elif not alpha_equal(q, c.q):
        raise _err("E-SEQ",
                   f"{what} expects marker {pretty.mk(c.q)}, "
                   f"current is {pretty.mk(q)}")
    if not regfile_subtype(chi, dict(c.chi)):
        raise _err("E-SEQ", f"registers do not satisfy the {what}")
    return q


def _adopt(tau, q: MHalt, mismatch: str) -> MHalt:
    """The halting marker q, adopted at a halting position that must halt
    at tau, unless tau is None; mismatch formats the error with q's type
    and tau."""
    if tau is not None and not alpha_equal(tau, q.tau):
        raise _err("E-SEQ", mismatch.format(pretty.ty(q.tau), pretty.ty(tau)))
    return q


def _peel(sigma: Stk, sigma0: Stk, what: str) -> list:
    """The slot types above sigma0 in sigma, top first. A stack ends in
    sigma0 only below as many slots as it shows more than sigma0; below a
    negative count it is sigma itself, too short to equal sigma0."""
    depth = len(stack_parts(sigma)[0]) - len(stack_parts(sigma0)[0])
    peeled, below = _top(sigma, depth)
    if not alpha_equal(below, sigma0):
        raise _err("E-SEQ", f"the stack does not end in the {what} tail "
                            f"{pretty.stk(sigma0)}")
    return peeled


def check_instruction_sequence(psi: dict, delta: Delta, gamma: dict,
                               chi: dict, sigma: Stk, q, iseq: ISeq,
                               tau: Ty | None = None) -> Mk:
    """Walk a sequence, threading chi, sigma, and the marker; returns the
    marker the sequence ends under, with the stack each protect hid put
    back for the variable that stood for it, the last protect first.

    q None is a halting position whose marker is not yet inferred; the
    marker that fixes it must halt at tau, unless tau is None.
    """
    chi = dict(chi)
    checked = None  # the halting marker last found well formed
    protects = []  # (zeta, the stack it hides), in order

    while True:
        if q is not checked:
            wf_return_marker(delta, chi, sigma, q)
            if isinstance(q, MHalt):
                checked = q
        if not isinstance(iseq, Seq):
            break
        ins = iseq.head
        iseq = iseq.tail

        if isinstance(ins, Aop):
            _guard(q, ins.rd, "arithmetic")
            if _is_reg_marker(q, ins.rs) or (
                    isinstance(ins.u, Reg) and _is_reg_marker(q, ins.u.name)):
                raise _err("E-SEQ", "marker register used as an operand")
            for operand in (Reg(ins.rs), ins.u):
                _require_int(check_small_value(psi, delta, chi, operand),
                             "arithmetic operand")
            chi[ins.rd] = TyInt()

        elif isinstance(ins, Bnz):
            _require_int(check_small_value(psi, delta, chi, Reg(ins.r)),
                         "branch condition")
            q = _check_target(psi, delta, chi, sigma, q, tau, ins.u,
                              "branch target")

        elif isinstance(ins, Ld):
            _guard(q, ins.rd, "load")
            t = check_small_value(psi, delta, chi, Reg(ins.rs))
            if not (isinstance(t, (Ref, Box)) and isinstance(t.psi, TyTuple)):
                raise _err("E-SEQ", "load from a non-tuple")
            chi[ins.rd] = _slot("E-SEQ", "load", t.psi.items, ins.idx)

        elif isinstance(ins, St):
            if _is_reg_marker(q, ins.rs):
                raise _err("E-SEQ", "marker register stored to the heap")
            t = check_small_value(psi, delta, chi, Reg(ins.rd))
            if isinstance(t, Box):
                raise _err("E-SEQ", "store into an immutable tuple")
            if not (isinstance(t, Ref) and isinstance(t.psi, TyTuple)):
                raise _err("E-SEQ", "store into a non-reference")
            slot = _slot("E-SEQ", "store", t.psi.items, ins.idx)
            ts = check_small_value(psi, delta, chi, Reg(ins.rs))
            if not alpha_equal(ts, slot):
                raise _err("E-SEQ",
                           f"store of {pretty.ty(ts)} into a slot of "
                           f"{pretty.ty(slot)}")

        elif isinstance(ins, (Ralloc, Balloc)):
            _guard(q, ins.rd, "allocation")
            q = _shift_pop(q, ins.n, "allocation would consume")
            items, sigma = _top(sigma, ins.n, "allocation")
            tup = TyTuple(tuple(items))
            chi[ins.rd] = Ref(tup) if isinstance(ins, Ralloc) else Box(tup)

        elif isinstance(ins, Mv):
            if isinstance(ins.u, Reg) and _is_reg_marker(q, ins.u.name):
                q = MReg(ins.rd)
            else:
                _guard(q, ins.rd, "move")
            chi[ins.rd] = check_small_value(psi, delta, chi, ins.u)

        elif isinstance(ins, Salloc):
            sigma = stack_of([TyUnit()] * ins.n, sigma)
            if isinstance(q, MIdx):
                q = MIdx(q.idx + ins.n)

        elif isinstance(ins, Sfree):
            _, sigma = _top(sigma, ins.n, "sfree")
            q = _shift_pop(q, ins.n, "sfree would remove")

        elif isinstance(ins, Sld):
            items, _ = _top(sigma, ins.idx + 1, "stack load")
            if isinstance(q, MIdx) and q.idx == ins.idx:
                q = MReg(ins.rd)
            else:
                _guard(q, ins.rd, "stack load")
            chi[ins.rd] = items[ins.idx]

        elif isinstance(ins, Sst):
            items, below = _top(sigma, ins.idx + 1, "stack store")
            t = check_small_value(psi, delta, chi, Reg(ins.rs))
            if _is_reg_marker(q, ins.rs):
                q = MIdx(ins.idx)
            elif isinstance(q, MIdx) and q.idx == ins.idx:
                raise _err("E-SEQ",
                           "stack store would overwrite the marker slot")
            items[ins.idx] = t
            sigma = stack_of(items, below)

        elif isinstance(ins, Unpack):
            _guard(q, ins.rd, "unpack")
            t = check_small_value(psi, delta, chi, ins.u)
            if not isinstance(t, Exists):
                raise _err("E-SEQ", "unpack of a non-package")
            delta, name, iseq = _open(delta, KIND_TYPE, ins.tv, iseq)
            chi[ins.rd] = instantiate(t, TVar(name))

        elif isinstance(ins, UnfoldI):
            _guard(q, ins.rd, "unfold")
            t = check_small_value(psi, delta, chi, ins.u)
            if not isinstance(t, Mu):
                raise _err("E-SEQ", "unfold of a non-recursive value")
            chi[ins.rd] = instantiate(t, t)

        elif isinstance(ins, Protect):
            wf(delta, *ins.phi)
            k = len(ins.phi)
            items, hidden = _top(sigma, k, "protect")
            for i in range(k):
                if not alpha_equal(items[i], ins.phi[i]):
                    raise _err("E-SEQ",
                               f"protect keeps {pretty.ty(ins.phi[i])} at "
                               f"slot {i}, the stack has "
                               f"{pretty.ty(items[i])}")
            if isinstance(q, MIdx) and q.idx >= k:
                raise _err("E-WFRET", "protect would hide the marker slot")
            delta, name, iseq = _open(delta, KIND_STACK, ins.zeta, iseq)
            sigma = stack_of(ins.phi, SVar(name))
            protects.append((name, hidden))

        elif isinstance(ins, ImportI):
            wf(delta, ins.sigma0)
            peeled = _peel(sigma, ins.sigma0, "import")
            if isinstance(q, MReg):
                raise _err("E-SEQ", "import with a register marker")
            if isinstance(q, MIdx) and q.idx < len(peeled):
                raise _err("E-SEQ", "import would expose the marker slot")
            inner, name, body = _open(delta, KIND_STACK, ins.zeta, ins.body)
            te, se = check_expression(psi, inner, gamma,
                                      stack_of(peeled, SVar(name)), body)
            ann = translate_type(ins.ann)
            if not alpha_equal(te, ins.ann):
                raise _err("E-SEQ",
                           f"import body has type {pretty.ty(te)}, the "
                           f"annotation says {pretty.ty(ins.ann)}")
            out_prefix, out_tail = stack_parts(se)
            if not (isinstance(out_tail, SVar) and out_tail.name == name):
                raise _err("E-SEQ",
                           "import body does not preserve the protected stack")
            for pt in out_prefix:
                if (KIND_STACK, name) in free_names(pt):
                    raise _err("E-SEQ",
                               "protected stack variable escapes the import")
            chi[ins.rd] = ann
            sigma = stack_of(out_prefix, ins.sigma0)
            if isinstance(q, MIdx):
                q = MIdx(q.idx + len(out_prefix) - len(peeled))

        else:
            raise _err("E-SEQ", f"unknown instruction {ins!r}")

    # Terminators.
    if isinstance(iseq, Jmp):
        q = _check_target(psi, delta, chi, sigma, q, tau, iseq.u,
                          "jump target")

    elif isinstance(iseq, Call):
        q = _check_call(psi, delta, chi, sigma, q, tau, iseq)

    elif isinstance(iseq, Ret):
        if not _is_reg_marker(q, iseq.r):
            shown = "unresolved" if q is None else pretty.mk(q)
            raise _err("E-SEQ",
                       f"the return marker must be in a register ({iseq.r}) "
                       f"for ret, current is {shown}")
        # Not None: wf_return_marker has just checked q at this chi and sigma.
        c = continuation_of(q, chi, sigma)
        if not alpha_equal(c.sigma, sigma):
            raise _err("E-SEQ",
                       f"continuation expects stack {pretty.stk(c.sigma)}, "
                       f"current is {pretty.stk(sigma)}")
        res_reg, res_ty = c.chi[0]
        if res_reg != iseq.r2:
            raise _err("E-SEQ",
                       f"continuation reads {res_reg}, not {iseq.r2}")
        tv = check_small_value(psi, delta, chi, Reg(iseq.r2))
        if not alpha_equal(tv, res_ty):
            raise _err("E-SEQ",
                       f"result register holds {pretty.ty(tv)}, the "
                       f"continuation wants {pretty.ty(res_ty)}")

    elif isinstance(iseq, Halt):
        _wf_as("E-SEQ", "halt annotation is ill-formed: ", delta, iseq.ann,
               iseq.sigma)
        if not alpha_equal(iseq.sigma, sigma):
            raise _err("E-SEQ",
                       f"halt annotation stack {pretty.stk(iseq.sigma)} does "
                       f"not match the current stack {pretty.stk(sigma)}")
        tv = check_small_value(psi, delta, chi, Reg(iseq.reg))
        if not alpha_equal(tv, iseq.ann):
            raise _err("E-SEQ",
                       f"halt register holds {pretty.ty(tv)}, the annotation "
                       f"says {pretty.ty(iseq.ann)}")
        if q is None:
            q = _adopt(tau, MHalt(iseq.ann, iseq.sigma),
                       "halt at {}, the boundary expects {}")
        elif not isinstance(q, MHalt):
            raise _err("E-SEQ", "halt without a halting marker")
        elif not alpha_equal(q.tau, iseq.ann) or \
                not alpha_equal(q.sigma, iseq.sigma):
            raise _err("E-SEQ", "halt does not match the halting marker")

    else:
        raise _err("E-SEQ", f"unknown terminator {iseq!r}")

    for name, hidden in reversed(protects):
        q = substitute(q, {(KIND_STACK, name): hidden})
    return q


def _check_call(psi: dict, delta: Delta, chi: dict, sigma: Stk, q, tau,
                call: Call) -> Mk:
    """The call rule; returns the marker, which a halting position (q
    None) takes from the call."""
    wf(delta, call.sigma0)
    tu = check_small_value(psi, delta, chi, call.u)
    if not (isinstance(tu, Box) and isinstance(tu.psi, CodeT)):
        raise _err("E-SEQ", "call target is not code")
    code = tu.psi
    if len(code.binders) != 2 or \
            kind_of_name(code.binders[0]) != KIND_STACK or \
            kind_of_name(code.binders[1]) != KIND_MARKER:
        raise _err("E-SEQ",
                   "call target must abstract a stack and a marker")
    z_h, eps_h = code.binders

    prefix = _peel(sigma, call.sigma0, "call")
    peel = len(prefix)
    ph, ptail = stack_parts(code.sigma)
    if not (isinstance(ptail, SVar) and ptail.name == z_h):
        raise _err("E-SEQ",
                   "callee stack must end in its own stack variable")
    if len(ph) != peel:
        raise _err("E-SEQ",
                   f"callee expects {len(ph)} transferred slots, the call "
                   f"hands over {peel}")
    for i in range(peel):
        if not alpha_equal(ph[i], prefix[i]):
            raise _err("E-SEQ",
                       f"transferred slot {i} is {pretty.ty(prefix[i])}, "
                       f"the callee expects {pretty.ty(ph[i])}")

    cont = continuation_of(code.q, dict(code.chi), code.sigma)
    if cont is None:
        raise _err("E-SEQ", "call target has no continuation")
    if not (isinstance(cont.q, MEps) and cont.q.name == eps_h):
        raise _err("E-SEQ",
                   "callee continuation must carry the callee's marker "
                   "variable")
    res_ty = cont.chi[0][1]
    pr, rtail = stack_parts(cont.sigma)
    if not (isinstance(rtail, SVar) and rtail.name == z_h):
        raise _err("E-SEQ",
                   "callee continuation stack must end in the callee's "
                   "stack variable")
    back = len(pr)

    if q is None:
        if not isinstance(call.qret, MHalt):
            raise _err("E-SEQ",
                       "call at a halting position must return a halting "
                       "marker")
        q = _adopt(tau, call.qret, "call returns {}, the boundary expects {}")
    elif isinstance(q, MHalt):
        if not (isinstance(call.qret, MHalt)
                and alpha_equal(q, call.qret)):
            raise _err("E-SEQ",
                       "call must pass the current halting marker on")
    elif isinstance(q, MIdx):
        if q.idx < peel:
            raise _err("E-SEQ",
                       "the marker slot lies inside the transferred prefix")
        want = q.idx + back - peel
        if not (isinstance(call.qret, MIdx) and call.qret.idx == want):
            raise _err("E-SEQ",
                       f"call return marker should be {want}, the call "
                       f"says {pretty.mk(call.qret)}")
    else:
        raise _err("E-SEQ", "call with a register marker")

    try:
        wf(delta, *(t for r, t in code.chi if not _is_reg_marker(code.q, r)))
    except KindError:
        raise _err("E-SEQ",
                   "callee registers other than the return address must "
                   "not mention its abstracted variables")
    _wf_as("E-SEQ", "call result is ill-formed here: ", delta, res_ty,
           substitute(cont.sigma, {(KIND_STACK, z_h): call.sigma0}))
    sub = {(KIND_STACK, z_h): call.sigma0, (KIND_MARKER, eps_h): call.qret}
    inst_code = substitute(CodeT((), code.chi, code.sigma, code.q), sub)
    _wf_as("E-SEQ", "instantiated callee is ill-formed: ", delta,
           Box(inst_code))
    if not regfile_subtype(chi, dict(inst_code.chi)):
        raise _err("E-SEQ", "registers do not satisfy the callee")
    return q


# ---------------------------------------------------------------------------
# Heap fragments and components


def check_heap_fragment(psi: dict, heap) -> dict:
    """Check the bindings of a component's heap fragment against psi.

    Returns psi extended with the fragment's label typing. Code blocks
    are typed by their annotations; a tuple binding is checked once every
    label free in it is typed, so tuples may point at each other in any
    order but not in a cycle; a chain of n tuples is checked in O(n)
    examinations, not one round per link. Structural problems raise
    E-HEAP; failures inside code bodies keep their own code with the
    label noted.
    """
    # A Counter keeps its keys in the order first declared.
    for label, n in Counter(hb.label for hb in heap).items():
        if n > 1:
            raise _err("E-HEAP", f"label {label} bound twice")

    merged = dict(psi)
    for hb in heap:
        if isinstance(hb.value, CodeBlock):
            if hb.nu != "box":
                raise _err("E-HEAP", f"{hb.label}: code must be boxed")
            block = hb.value
            code_ty = CodeT(block.binders, block.chi, block.sigma, block.q)
            _wf_as("E-HEAP", f"{hb.label}: ", (), Box(code_ty))
            merged[hb.label] = ("box", code_ty)

    # The tuple bindings are scanned in declaration order, round after
    # round. One that names a label not yet typed waits for it, and comes
    # back where a scan next reaches it once the label is typed: in the
    # same round if it is declared after the label's binding, else in the
    # next. A binding is so taken up only when it may get further.
    queue = [(0, i, hb) for i, hb in enumerate(heap)
             if not isinstance(hb.value, CodeBlock)]
    waiting: dict = {}  # label -> the (index, binding) pairs waiting for it
    while queue:
        rnd, i, hb = heappop(queue)
        if not isinstance(hb.value, TupleVal):
            raise _err("E-HEAP",
                       f"{hb.label}: heap binding must be code or a tuple")
        types = []
        for w in hb.value.items:
            missing = next((n for k, n in free_names(w)
                            if k == KIND_LOC and n not in merged), None)
            if missing is not None:
                waiting.setdefault(missing, []).append((i, hb))
                break
            try:
                types.append(check_small_value(merged, (), {}, w))
            except CheckError as e:
                raise _err("E-HEAP", f"{hb.label}: {e.message}")
        else:
            merged[hb.label] = (hb.nu, TyTuple(tuple(types)))
            for j, other in waiting.pop(hb.label, ()):
                heappush(queue, (rnd + (j < i), j, other))
    if waiting:
        left = sorted(entry for entries in waiting.values() for entry in entries)
        names = ", ".join(hb.label for _, hb in left)
        raise _err("E-HEAP",
                   f"unresolvable heap bindings (cycle or dangling "
                   f"label): {names}")

    for hb in heap:
        if isinstance(hb.value, CodeBlock):
            block = hb.value
            try:
                check_instruction_sequence(merged, tuple(binders(block)), {},
                                           dict(block.chi), block.sigma,
                                           block.q, block.body)
            except CheckError as e:
                if not e.where:
                    e.where = hb.label
                raise
    return merged


def check_component(psi: dict, delta: Delta, gamma: dict, sigma: Stk,
                    tau: Ty | None, comp: Component):
    """Check a component that must halt at tau (at any type when tau is
    None); returns the (tau, sigma') of the halting marker it infers."""
    for label, (nu, _) in psi.items():
        if nu != "box":
            raise _err("E-COMPONENT",
                       f"component under a heap with mutable binding {label}")
    for label in comp.labels():
        if label in psi:
            raise _err("E-HEAP", f"label {label} is already bound")
    q = check_instruction_sequence(check_heap_fragment(psi, comp.heap),
                                   delta, gamma, {}, sigma, None, comp.body,
                                   tau)
    escaped = sorted(k for k in free_names(q)
                     if k[0] in _SORTS and k not in delta)
    if escaped:
        raise _err("E-COMPONENT",
                   f"local {escaped[0][1]} escapes the component")
    return q.tau, q.sigma


# ---------------------------------------------------------------------------
# Expressions


def check_expression(psi: dict, delta: Delta, gamma: dict, sigma: Stk,
                     e: Tm):
    """Type an expression; returns (tau, sigma')."""
    if isinstance(e, Var):
        t = gamma.get(e.name)
        if t is None:
            raise _err("E-EXPR", f"unbound variable {e.name}")
        return t, sigma
    if isinstance(e, IntVal):
        return TyInt(), sigma
    if isinstance(e, UnitVal):
        return TyUnit(), sigma
    if isinstance(e, Binop):
        tl, s1 = check_expression(psi, delta, gamma, sigma, e.left)
        if not isinstance(tl, TyInt):
            raise _err("E-EXPR", "arithmetic on a non-integer")
        tr, s2 = check_expression(psi, delta, gamma, s1, e.right)
        if not isinstance(tr, TyInt):
            raise _err("E-EXPR", "arithmetic on a non-integer")
        return TyInt(), s2
    if isinstance(e, If0):
        tc, s0 = check_expression(psi, delta, gamma, sigma, e.cond)
        if not isinstance(tc, TyInt):
            raise _err("E-EXPR", "condition must be an integer")
        ta, sa = check_expression(psi, delta, gamma, s0, e.then)
        tb, sb = check_expression(psi, delta, gamma, s0, e.els)
        if not alpha_equal(ta, tb):
            raise _err("E-EXPR",
                       f"branches disagree: {pretty.ty(ta)} against "
                       f"{pretty.ty(tb)}")
        if not alpha_equal(sa, sb):
            raise _err("E-EXPR", "branches disagree on the stack")
        return ta, sa
    if isinstance(e, Lam):
        # A plain lambda is a stack lambda with empty prefixes, apart from
        # its type and its error message.
        params = tuple(t for _, t in e.params)
        phi_in, phi_out = e.stack or ((), ())
        wf(delta, *params, *phi_in, *phi_out)
        zf = fresh_name("z", {n for _, n in delta})
        gamma2 = {**gamma, **dict(e.params)}
        tb, sb = check_expression(psi, delta + ((KIND_STACK, zf),), gamma2,
                                  stack_of(phi_in, SVar(zf)), e.body)
        if not alpha_equal(sb, stack_of(phi_out, SVar(zf))):
            raise _err("E-EXPR",
                       "function body must leave the stack as it found it"
                       if e.stack is None else
                       "function body does not produce the declared stack")
        if e.stack is None:
            return Arrow(params, tb), sigma
        return StackArrow(params, phi_in, phi_out, tb), sigma
    if isinstance(e, App):
        tf, s = check_expression(psi, delta, gamma, sigma, e.fn)
        if not isinstance(tf, (Arrow, StackArrow)):
            raise _err("E-EXPR", "application of a non-function")
        params, phi_in, phi_out, ret = arrow_parts(tf)
        if len(e.args) != len(params):
            raise _err("E-EXPR",
                       f"{len(params)} parameters, {len(e.args)} "
                       f"arguments")
        for i, arg in enumerate(e.args):
            ti, s = check_expression(psi, delta, gamma, s, arg)
            if not alpha_equal(ti, params[i]):
                raise _err("E-EXPR",
                           f"argument {i + 1} has type {pretty.ty(ti)}, "
                           f"expected {pretty.ty(params[i])}")
        k = len(phi_in)
        items, rest = _top(s, k)
        if len(items) < k:
            raise _err("E-EXPR",
                       "the stack does not provide the required prefix")
        for i in range(k):
            if not alpha_equal(items[i], phi_in[i]):
                raise _err("E-EXPR",
                           f"stack slot {i} is {pretty.ty(items[i])}, the "
                           f"function needs {pretty.ty(phi_in[i])}")
        return ret, stack_of(phi_out, rest)
    if isinstance(e, TupleVal):
        s = sigma
        types = []
        for item in e.items:
            t, s = check_expression(psi, delta, gamma, s, item)
            types.append(t)
        return TyTuple(tuple(types)), s
    if isinstance(e, Proj):
        t, s = check_expression(psi, delta, gamma, sigma, e.e)
        if not isinstance(t, TyTuple):
            raise _err("E-EXPR", "projection from a non-tuple")
        return _slot("E-EXPR", "projection", t.items, e.idx), s
    if isinstance(e, Fold):
        wf(delta, e.ann)
        if not isinstance(e.ann, Mu):
            raise _err("E-EXPR", "fold annotation must be recursive")
        te, s = check_expression(psi, delta, gamma, sigma, e.e)
        unrolled = instantiate(e.ann, e.ann)
        if not alpha_equal(te, unrolled):
            raise _err("E-EXPR",
                       f"folded value has type {pretty.ty(te)}, expected "
                       f"{pretty.ty(unrolled)}")
        return e.ann, s
    if isinstance(e, Unfold):
        t, s = check_expression(psi, delta, gamma, sigma, e.e)
        if not isinstance(t, Mu):
            raise _err("E-EXPR", "unfold of a non-recursive value")
        return instantiate(t, t), s
    if isinstance(e, Let):
        tr, s1 = check_expression(psi, delta, gamma, sigma, e.rhs)
        if e.ann is not None:
            wf(delta, e.ann)
            if not alpha_equal(tr, e.ann):
                raise _err("E-EXPR",
                           f"bound value has type {pretty.ty(tr)}, the "
                           f"annotation says {pretty.ty(e.ann)}")
        gamma2 = {**gamma, e.var: tr}
        return check_expression(psi, delta, gamma2, s1, e.body)
    if isinstance(e, SeqE):
        # Along the second spine, so that a long sequence does not recurse.
        while isinstance(e, SeqE):
            _, sigma = check_expression(psi, delta, gamma, sigma, e.first)
            e = e.second
        return check_expression(psi, delta, gamma, sigma, e)
    if isinstance(e, Boundary):
        wf(delta, e.ann)
        _, s_out = check_component(psi, delta, gamma, sigma,
                                   translate_type(e.ann), e.comp)
        return e.ann, s_out
    raise _err("E-EXPR", "not a source-language expression")


# ---------------------------------------------------------------------------
# Programs


def check_program(prog: Program):
    """Check a whole program; returns (tau, sigma')."""
    if prog.entry == "F":
        return check_expression({}, (), {}, SNil(), prog.main)
    return check_component({}, (), {}, SNil(), None, prog.main)
