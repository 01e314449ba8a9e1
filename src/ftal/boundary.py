"""Type and value translations across language boundaries.

The type translation maps source-language types onto target-language code
and heap types.  The value translations move runtime values across a
boundary in either direction: exporting wraps functions in generated code
blocks, importing wraps code pointers in generated lambdas.  Both may
allocate into the machine heap through the dict and fresh-label callable
they are given, so they stay independent of the machine module.

Each type is translated once, and the parts of a wrapper that depend only
on its annotation (translated types, shims, the instructions around the
value or word it wraps, the halting block) are built once per annotation;
a crossing builds only the cells that hold its value or word and its fresh
labels.  The memos are keyed by types, which are immutable, and hold
nothing built from a value.

A heap cell is a triple (nu, payload, scope): a block or a list of
words, and the term environment a block runs under, or None.  An exported
wrapper's whole block is one of the shared parts: its import applies the
term variable ``_HOLE``, and its cell's scope binds ``_HOLE`` to the
exported value, as the machine holds it.  So an export walks no syntax of
its value and builds no block, and the machine closes the body once per
instantiation of its binders and enters it under that scope.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from . import pretty
from .errors import KindError, TranslationError
from .syntax import (
    Arrow,
    Boundary,
    Box,
    Call,
    CodeBlock,
    CodeT,
    Component,
    Fold,
    Halt,
    ImportI,
    Inst,
    IntVal,
    Lam,
    Loc,
    MEps,
    MHalt,
    MReg,
    Mu,
    Mv,
    Node,
    Protect,
    Ret,
    SVar,
    Seq,
    Salloc,
    Sfree,
    Sld,
    Sst,
    StackArrow,
    Tm,
    TupleVal,
    TVar,
    Ty,
    TyInt,
    TyTuple,
    TyUnit,
    UnitVal,
    Var,
    App,
    arrow_parts,
    chi_get,
    free_names,
    fresh_name,
    instantiate,
    make_chi,
    seq_of,
    stack_of,
)

HeapDict = dict
FreshFn = Callable[[str], str]

# Entries per memo: far more annotations than a program has, and a bound
# on what a long-running process keeps.
MEMO_SIZE = 1024


def _names_in(*nodes: Node) -> set:
    out = set()
    for node in nodes:
        for _, name in free_names(node):
            out.add(name)
    return out


def _pick(base: str, avoid: set) -> str:
    if base not in avoid:
        return base
    return fresh_name(base, avoid)


@lru_cache(maxsize=MEMO_SIZE)
def translate_type(t: Ty) -> Ty:
    """Map a source-language type to its target-language image, computed
    once per type (a KindError is not cached).

    Raises KindError when t is not built from the source grammar, which
    also rejects re-translating an already translated type.
    """
    if isinstance(t, (TyUnit, TyInt, TVar)):
        return t
    if isinstance(t, Mu):
        return Mu(t.var, translate_type(t.body))
    if isinstance(t, TyTuple):
        return Box(TyTuple(tuple(translate_type(item) for item in t.items)))
    if isinstance(t, (Arrow, StackArrow)):
        params, phi_in, phi_out, ret = arrow_parts(t)
        params = [translate_type(p) for p in params]
        ret = translate_type(ret)
        avoid = _names_in(*(params + [ret] + phi_in + phi_out))
        z = _pick("z", avoid)
        eps = _pick("eps", avoid | {z})
        cont = Box(CodeT((), make_chi([("r1", ret)]),
                         stack_of(phi_out, SVar(z)), MEps(eps)))
        entry = stack_of(list(reversed(params)) + phi_in, SVar(z))
        code = CodeT((z, eps), make_chi([("ra", cont)]), entry, MReg("ra"))
        return Box(code)
    raise KindError(f"not a source-language type: {pretty.ty(t)}")


def export_value(ann: Ty, v: Tm, heap: HeapDict, fresh: FreshFn) -> Tm:
    """Translate a source value of type ann into a target word.

    Tuples and function wrappers allocate into heap; the word that names
    them is returned.
    """
    if isinstance(ann, TyInt):
        if isinstance(v, IntVal):
            return v
        raise TranslationError("ill-typed", "expected an integer value")
    if isinstance(ann, TyUnit):
        if isinstance(v, UnitVal):
            return v
        raise TranslationError("ill-typed", "expected the unit value")
    if isinstance(ann, TyTuple):
        if not isinstance(v, TupleVal) or len(v.items) != len(ann.items):
            raise TranslationError("ill-typed", "expected a tuple value")
        words = [export_value(it, iv, heap, fresh)
                 for it, iv in zip(ann.items, v.items)]
        label = fresh("lt")
        heap[label] = ("box", words, None)
        return Loc(label)
    if isinstance(ann, Mu):
        if not isinstance(v, Fold):
            raise TranslationError("ill-typed", "expected a folded value")
        inner = export_value(instantiate(ann, ann), v.e, heap, fresh)
        return Fold(translate_type(ann), inner)
    if isinstance(ann, (Arrow, StackArrow)):
        label = fresh("lexp")
        heap[label] = ("box", _export_block(ann), (_HOLE, v, None))
        return Loc(label)
    raise TranslationError("ill-typed", "value cannot cross at this type")


# The term variable a wrapper's body applies, bound by its cell's scope
# to the exported value.
_HOLE = "exported"


@lru_cache(maxsize=MEMO_SIZE)
def _export_block(ann: Ty) -> CodeBlock:
    """The code block that lets target code call a function exported at
    ``ann``, built once per annotation.

    Layout on entry matches the translated type: arguments with the last
    on top, then any visible prefix, then the caller's abstract tail.  The
    body stashes the return address below the visible slots, imports the
    applied function with one shim per argument (the last shim frees the
    argument slots), then restores the return address and returns.  The
    applied function is ``_HOLE``, which the scope of the block's cell
    binds to the exported value.
    """
    params, phi_in, phi_out, ret_ty = arrow_parts(ann)
    n = len(params)
    m = len(phi_in)
    mo = len(phi_out)
    code: CodeT = translate_type(ann).psi
    z, eps = code.binders
    cont_ty = chi_get(code.chi, "ra")
    args_rev = [translate_type(p) for p in reversed(params)]

    instrs = [Salloc(1)]
    for j in range(n + m):
        instrs.append(Sld("r2", j + 1))
        instrs.append(Sst(j, "r2"))
    instrs.append(Sst(n + m, "ra"))

    stashed = args_rev + list(phi_in) + [cont_ty]
    shims = []
    for i in range(1, n + 1):
        ti = params[i - 1]
        if i < n:
            load, left = [Sld("r1", n - i)], stashed
        else:
            load, left = [Sld("r1", 0), Sfree(n)], list(phi_in) + [cont_ty]
        halt = Halt(translate_type(ti), stack_of(left, SVar(z)), "r1")
        shims.append(Boundary(ti, Component(seq_of(load, halt), ())))

    instrs.append(ImportI("r1", stack_of([cont_ty], SVar(z)),
                          _pick("zi", {z, eps}), ret_ty,
                          App(Var(_HOLE), tuple(shims))))

    instrs.append(Sld("ra", mo))
    for j in reversed(range(mo)):
        instrs.append(Sld("r2", j))
        instrs.append(Sst(j + 1, "r2"))
    instrs.append(Sfree(1))
    return CodeBlock(code.binders, code.chi, code.sigma, code.q,
                     seq_of(instrs, Ret("ra", "r1")))


def import_value(ann: Ty, w: Tm, heap: HeapDict, fresh: FreshFn) -> Tm:
    """Translate a target word back to a source value of ann, a source
    type: a boundary's FT annotation, not its translation."""
    if isinstance(ann, TyInt):
        if isinstance(w, IntVal):
            return w
        raise TranslationError("ill-typed", "expected an integer word")
    if isinstance(ann, TyUnit):
        if isinstance(w, UnitVal):
            return w
        raise TranslationError("ill-typed", "expected the unit word")
    if isinstance(ann, TyTuple):
        if not isinstance(w, Loc):
            raise TranslationError("ill-typed", "expected a heap location")
        if w.name not in heap:
            raise TranslationError("dangling-location",
                                   f"location {w.name} is not allocated")
        nu, payload, _ = heap[w.name]
        if nu != "box" or not isinstance(payload, list):
            raise TranslationError("ill-typed",
                                   "expected an immutable tuple location")
        if len(payload) != len(ann.items):
            raise TranslationError("ill-typed", "tuple width mismatch")
        items = [import_value(it, word, heap, fresh)
                 for it, word in zip(ann.items, payload)]
        return TupleVal(tuple(items))
    if isinstance(ann, Mu):
        if not isinstance(w, Fold):
            raise TranslationError("ill-typed", "expected a folded word")
        inner = import_value(instantiate(ann, ann), w.e, heap, fresh)
        return Fold(ann, inner)
    if isinstance(ann, (Arrow, StackArrow)):
        return _import_lambda(ann, w, heap, fresh)
    raise TranslationError("ill-typed", "word cannot cross at this type")


def _import_lambda(ann: Ty, w: Tm, heap: HeapDict, fresh: FreshFn) -> Lam:
    """Build the lambda that lets source code call an imported code pointer.

    The body protects the visible prefix, exports each argument onto the
    stack (last argument on top), points the return register at a fresh
    halting block, and calls the pointer.
    """
    # The wrapper picks z and zi, freshened to z#k and zi#k if taken, so
    # only the names of w spelled so can change them; every other word
    # shares the parts.  A bare label's one name is itself.
    names = (w.name,) if type(w) is Loc else (name for _, name in free_names(w))
    taken = frozenset(n for n in names if n.split("#", 1)[0] in ("z", "zi"))
    before, z, end_block, q, lam_params, stack_ann = _import_parts(ann, taken)
    end_label = fresh("lend")
    heap[end_label] = ("box", end_block, None)
    body = seq_of(before, Seq(Mv("ra", Inst(Loc(end_label), z)), Call(w, z, q)))
    return Lam(lam_params, Boundary(ann.ret, Component(body, ())), stack_ann)


@lru_cache(maxsize=MEMO_SIZE)
def _import_parts(ann: Ty, taken: frozenset) -> tuple:
    """What every lambda imported at ``ann``, from a word naming the
    ``taken`` names the wrapper could pick, shares: the instructions
    before it sets the return register, its protected tail, its halting
    block, the marker of its call, and its parameters and stack prefixes."""
    params, phi_in, phi_out, ret_ty = arrow_parts(ann)
    n = len(params)
    ret_plus = translate_type(ret_ty)
    avoid = _names_in(ann) | taken
    z = _pick("z", avoid)
    zeta = _pick("zi", avoid | {z})

    before = [Protect(tuple(phi_in), z)]
    pushed = []
    for i in range(1, n + 1):
        ti = params[i - 1]
        sigma0 = stack_of(pushed + list(phi_in), SVar(z))
        before.append(ImportI("r1", sigma0, zeta, ti, Var(f"x{i}")))
        before.append(Salloc(1))
        before.append(Sst(0, "r1"))
        pushed.insert(0, translate_type(ti))

    zend = _pick("z", _names_in(*phi_out, ret_plus))
    end_sigma = stack_of(phi_out, SVar(zend))
    end_block = CodeBlock(
        (zend,), make_chi([("r1", ret_plus)]), end_sigma,
        MHalt(ret_plus, end_sigma),
        seq_of([], Halt(ret_plus, end_sigma, "r1")))

    q = MHalt(ret_plus, stack_of(phi_out, SVar(z)))
    lam_params = tuple((f"x{i}", params[i - 1]) for i in range(1, n + 1))
    stack_ann = (tuple(phi_in), tuple(phi_out)) if isinstance(ann, StackArrow) else None
    return tuple(before), SVar(z), end_block, q, lam_params, stack_ann
