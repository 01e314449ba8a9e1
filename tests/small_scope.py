"""Small-scope safety: every target program of a few instructions over
one alphabet is checked, and each one the checker accepts is run to a
value of its type.

Each program is ``entry T (mv r1, 5; i1; ...; ik; t)`` over the heap
``HEAP``: a polymorphic code block ``l``, a box tuple, a ref tuple, and
a callee ``lf`` that returns through ``ra``, to which ``l[int]`` is a
continuation.  The instructions ``i`` and terminators ``t`` are every
instance of each class of ``syntax.T_SYNTAX`` whose slots are filled
from ``SLOTS``, or from ``NARROW`` for a class that takes a smaller
pool.  The operands are the leaves of ``conftest.words``, an integer,
the tuples' labels, ``l[int]``, and every shell that
``conftest.word_shells`` puts around ``r1`` and ``ra``: the
register-file application R-hat reads a register under any of them.

The checker reads a sequence from left to right, so a prefix that ends
in a terminator it does not know (``_Open``) fails with "unknown
terminator" exactly when it accepts every instruction before it; only
such a prefix is grown.

For every program the property is:

- ``check_program`` accepts it or raises ``CheckError``;
- an accepted program ends ``halted`` or ``f-value`` within ``FUEL``;
- its value types at the checked type, and its stack at the checked
  stack, under an empty register file and its final heap;
- the machine agrees with ``tests/reference_machine.py`` step for step.

Tier-1 enumerates every program of up to two instructions.  To
enumerate longer ones, run from the repository root:

    PYTHONPATH=src python tests/small_scope.py 3
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass

from conftest import FOLDS, LEAVES, PACKED, word_shells
from ftal import machine, parser, pretty
from ftal import syntax as S
from ftal.errors import CheckError
from ftal.typecheck import check_program, check_small_value
from test_reference_machine import assert_agree

FUEL = 3000

HEAP = parser.parse_program("""entry T
(
  halt[int, *] r1
, where
  l -> code[a]{r1: int; *} ret(int, *).
    halt[int, *] r1,
  lbox -> box <7>,
  lref -> ref <7>,
  lf -> code[z, eps]{r1: int, ra: box code[]{r1: int; z} eps; z} ra.
    ret ra {r1}
)
""").main.heap
START = S.Mv("r1", S.IntVal(5))

# r1 holds an integer when the enumerated code starts, and ra is the
# register an instruction writes.
R1, RA, L_INT = S.Reg("r1"), S.Reg("ra"), S.Inst(S.Loc("l"), S.TyInt())
SHELLS = (*word_shells(R1), *word_shells(RA))
OPERANDS = (*LEAVES, S.IntVal(2), S.Loc("lbox"), S.Loc("lref"), L_INT, *SHELLS)
TARGETS = (RA, L_INT, S.Inst(RA, S.TyInt()))
SLOTS = {
    "op": S.AOPS, "rd": ("ra",), "rs": ("r1", "ra"), "r": ("r1",),
    "u": OPERANDS, "idx": (0,), "n": (1,), "tv": ("a",), "phi": ((),),
    "zeta": ("z",), "sigma0": (S.SNil(),), "ann": (S.TyInt(),),
    "body": (S.IntVal(3),), "qret": (S.MHalt(S.TyInt(), S.SNil()),), "r2": ("r1",), "reg": ("r1", "ra"),
    "sigma": (S.SNil(), S.SVar("z"), *(S.SCons(t, S.SNil()) for t in (S.TyUnit(), S.TyInt()))),
}
NARROW = {
    S.Aop: {"rs": ("r1",), "u": (RA, S.IntVal(2))},
    S.Bnz: {"u": TARGETS},
    S.Unpack: {"u": (RA, *(w for w in SHELLS if type(w) is S.Pack))},
    S.UnfoldI: {"u": (RA, *(w for w in SHELLS if type(w) is S.Fold))},
    S.Jmp: {"u": TARGETS},
    S.Call: {"u": (S.Loc("lf"),)},
    S.Ret: {"r": ("ra",)},
    S.Halt: {"ann": (S.TyInt(), S.TyUnit(), PACKED, FOLDS[0])},
}


def alphabet() -> tuple[list, list]:
    """The instructions and the terminators."""
    instrs, terminators = [], []
    for cls, template in S.T_SYNTAX.items():
        parts, _ = S.template_parts(template)
        names = [field for _, field in parts]
        pools = [NARROW.get(cls, {}).get(f, SLOTS[f]) for f in names]
        into = instrs if issubclass(cls, S.Instr) else terminators
        into += [cls(**dict(zip(names, values))) for values in itertools.product(*pools)]
    return instrs, terminators


@dataclass(frozen=True)
class _Open(S.ISeq):
    """A terminator the checker does not know."""


def _program(instrs, terminator) -> S.Program:
    return S.Program("T", S.Component(S.seq_of([START, *instrs], terminator), HEAP))


def _checks_through(instrs) -> bool:
    """Whether the checker accepts every instruction of ``instrs``."""
    try:
        check_program(_program(instrs, _Open()))
    except CheckError as e:
        return e.message.startswith("unknown terminator")
    raise AssertionError("a sequence with no terminator checked")


def heap_typing(heap: dict) -> dict:
    """The label typing of a machine's heap: a code cell at its block's
    type, and a tuple cell at its words' types, taken in the order the
    cells were made."""
    psi = {label: (nu, S.CodeT(b.binders, b.chi, b.sigma, b.q))
           for label, (nu, b, _) in heap.items() if isinstance(b, S.CodeBlock)}
    for label, (nu, words, _) in heap.items():
        if not isinstance(words, S.CodeBlock):
            types = tuple(check_small_value(psi, (), {}, w) for w in words)
            psi[label] = (nu, S.TyTuple(types))
    return psi


def check_safe(prog: S.Program) -> bool:
    """Whether the checker accepts ``prog``; if it does, ``prog`` runs
    to a value of its type, as the reference machine runs it."""
    try:
        tau, sigma = check_program(prog)
    except CheckError:
        return False
    shown = pretty.program(prog)
    m = machine.Machine(prog)
    out = m.run(FUEL)
    assert out.kind in ("halted", "f-value"), (shown, out)
    prefix, tail = S.stack_parts(sigma)
    assert tail == S.SNil() and len(prefix) == len(out.stack), (shown, out)
    try:
        psi = heap_typing(m.heap)
        typed = all(S.alpha_equal(check_small_value(psi, (), {}, w), t)
                    for w, t in zip((out.value, *out.stack), (tau, *prefix)))
    except CheckError:
        typed = False
    assert typed, (shown, out)
    assert_agree(prog, FUEL)
    return True


def accepted(k: int) -> list:
    """Every program of at most ``k`` instructions that the checker
    accepts, each checked to be safe."""
    instrs, terminators = alphabet()
    out, level = [], [()]
    for length in range(k + 1):
        for prefix in level:
            out += [prog for t in terminators
                    if check_safe(prog := _program(prefix, t))]
        if length < k:
            level = [grown for prefix in level for i in instrs
                     if _checks_through(grown := (*prefix, i))]
    return out


if __name__ == "__main__":
    k = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    print(f"{len(accepted(k))} programs of at most {k} instructions checked and ran safely")
