"""One digest of what the checker says about a fixed set of programs.

For each program it records ``check_program``'s result: the type and
out-stack it reports, or the code, message and ``where`` of the
``CheckError`` it raises, with object addresses stripped.  It prints the
sha256 of those results in order, and how many programs were accepted
and rejected.  Two checkouts whose checkers agree print the same line,
so a change meant to keep every verdict and message can be compared
with its parent:

    PYTHONPATH=src python tests/checker_digest.py

The programs:

- every ``entry T`` program of ``tests/small_scope.py``'s shape with 0-2
  instructions drawn from its alphabet and ``EXTRAS`` (protects, stack
  growth and shrinking), ended by each terminator of the alphabet and by
  each of ``HALTS``, which halt at stacks that name a protected tail;
- the same with only ``EXTRAS`` as instructions, as the component of an
  ``entry F`` boundary ``FT[int]``;
- the bundled corpus, every program of ``tests/mutations.py``, and the
  four programs of perfbench's frontend workload at seed 1.

It takes about 15 s on Python 3.11.7; it is not part of tier-1.
"""

from __future__ import annotations

import hashlib
import itertools
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import mutations  # noqa: E402
import small_scope  # noqa: E402
import workloads  # noqa: E402
from conftest import ALL_FTAL, corpus_text  # noqa: E402
from ftal import parser, pretty  # noqa: E402
from ftal import syntax as S  # noqa: E402
from ftal.errors import CheckError  # noqa: E402
from ftal.typecheck import check_program  # noqa: E402

UNIT = S.TyUnit()
EXTRAS = (
    S.Protect(phi=(), zeta="z"),
    S.Protect(phi=(), zeta="zp"),
    S.Protect(phi=(UNIT,), zeta="zq"),
    S.Salloc(n=1),
    S.Salloc(n=2),
    S.Sst(idx=0, rs="r1"),
    S.Sfree(n=1),
)
HALTS = tuple(S.Halt(ann=S.TyInt(), sigma=sigma, reg=reg)
              for sigma in (S.SVar("zp"), S.SVar("zq"), S.SCons(UNIT, S.SVar("zq")))
              for reg in ("r1", "ra"))


def sequences(instrs, terminators):
    """Every body of 0-2 instructions from ``instrs`` ended by each of
    ``terminators``."""
    for k in range(3):
        for prefix in itertools.product(instrs, repeat=k):
            for t in terminators:
                yield prefix, t


def component(prefix, terminator) -> S.Component:
    body = S.seq_of([small_scope.START, *prefix], terminator)
    return S.Component(body, small_scope.HEAP)


def programs():
    instrs, terminators = small_scope.alphabet()
    terminators = (*terminators, *HALTS)
    for prefix, t in sequences((*instrs, *EXTRAS), terminators):
        yield S.Program("T", component(prefix, t))
    for prefix, t in sequences(EXTRAS, terminators):
        yield S.Program("F", S.Boundary(S.TyInt(), component(prefix, t)))
    texts = [corpus_text(name) for name in ALL_FTAL]
    texts += [src for *_, src in mutations.REJECTED + mutations.ACCEPTED]
    frontend = workloads.Frontend(1, workloads.SIZES["full"], None)
    texts += [text for _, text, _ in frontend.programs]
    for text in texts:
        yield parser.parse_program(text)


def verdict(prog: S.Program) -> tuple[bool, str]:
    try:
        tau, sigma = check_program(prog)
    except CheckError as e:
        return False, re.sub(r" at 0x[0-9a-f]+", "", f"{e.code}\t{e.message}\t{e.where}")
    return True, f"{pretty.ty(tau)}; {pretty.stk(sigma)}"


def main() -> None:
    digest = hashlib.sha256()
    counts = [0, 0]
    for prog in programs():
        ok, line = verdict(prog)
        counts[ok] += 1
        digest.update(line.encode() + b"\n")
    print(f"{digest.hexdigest()} accepted {counts[True]} rejected {counts[False]}")


if __name__ == "__main__":
    main()
