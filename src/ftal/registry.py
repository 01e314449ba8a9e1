"""Registry for the bundled example programs and equivalence jobs.

Each entry records the type `check` must report and the behavior `run`
must show, so the whole bundle can be validated in one sweep.
"""

from __future__ import annotations

import math
import pathlib
from collections.abc import Callable

from . import harness, machine, parser, pretty
from .record import Record, record
from .syntax import IntVal, Program, UnitVal
from .typecheck import check_program

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"


@record
class ProgramEntry(Record):
    """One bundled program: its reported type and its expected run."""

    name: str
    type_text: str
    # How to exercise it: "halted" (top-level halt, value + stack depth),
    # "value" (a source value), or "applied" (a function probed on
    # inputs against a reference function).
    run_kind: str
    value: int | None = None
    stack_depth: int = 0
    inputs: tuple = ()
    reference: Callable[[int], int] | None = None


PROGRAMS = (
    ProgramEntry("call_to_call", "int; *", "halted", value=2, stack_depth=0),
    ProgramEntry("jit", "int; *", "value", value=2),
    ProgramEntry("basic_blocks_f1", "(int) -> int; *", "applied",
                 inputs=tuple(range(0, 11)), reference=lambda v: v + 2),
    ProgramEntry("basic_blocks_f2", "(int) -> int; *", "applied",
                 inputs=tuple(range(0, 11)), reference=lambda v: v + 2),
    ProgramEntry("factorial_f", "(int) -> int; *", "applied",
                 inputs=tuple(range(0, 9)), reference=math.factorial),
    ProgramEntry("factorial_t", "(int) -> int; *", "applied",
                 inputs=tuple(range(0, 9)), reference=math.factorial),
    ProgramEntry("withref", "int; *", "value", value=42),
    ProgramEntry("import_one_plus_one", "int; *", "value", value=2),
    ProgramEntry("push7_stack_lambda", "unit; int :: *", "value",
                 stack_depth=1),
)

JOBS = (
    ("basic_blocks", "consistent-equivalent", None),
    ("factorial", "consistent-equivalent", None),
    ("identity_vs_succ", "distinguished", 0),
)


def program_path(name: str) -> pathlib.Path:
    return CORPUS_DIR / f"{name}.ftal"


def job_path(name: str) -> pathlib.Path:
    return CORPUS_DIR / f"{name}.json"


def load_program(name: str) -> Program:
    return parser.parse_program(parser.read_source(program_path(name)))


def _check_row(entry: ProgramEntry) -> tuple[bool, str]:
    prog = load_program(entry.name)
    tau, sigma = check_program(prog)
    got = f"{pretty.ty(tau)}; {pretty.stk(sigma)}"
    return got == entry.type_text, got


def _run_row(entry: ProgramEntry, fuel: int) -> tuple[bool, str]:
    prog = load_program(entry.name)
    if entry.run_kind == "applied":
        for n in entry.inputs:
            out = machine.run_program(harness.apply_to_input(prog, n), fuel)
            want = IntVal(entry.reference(n))
            if not (out.kind == "f-value" and out.value == want):
                got = "" if out.value is None else f" {pretty.value_str(out.value)}"
                return False, f"input {n}: {out.kind}{got}, want {pretty.value_str(want)}"
        return True, f"{len(entry.inputs)} inputs agree with the reference"
    out = machine.run_program(prog, fuel)
    ok = (out.kind, out.value, len(out.stack)) == _expected(entry)[0]
    return ok, f"{out.kind} {pretty.value_str(out.value)}"


def _job_row(name: str, want_verdict: str, want_witness) -> tuple[bool, str]:
    result = harness.run_job(harness.load_job(job_path(name)))
    ok = result["verdict"] == want_verdict
    if want_witness is not None:
        ok = ok and result.get("witness") == want_witness
    return ok, result["verdict"]


def run_all(fuel: int) -> list[dict]:
    """Validate every bundled program and job; one row per check."""
    rows = []
    for entry in PROGRAMS:
        ok, got = _check_row(entry)
        rows.append({"name": entry.name, "stage": "check",
                     "ok": ok, "expected": entry.type_text, "got": got})
        if ok:
            ok2, detail = _run_row(entry, fuel)
            rows.append({"name": entry.name, "stage": "run",
                         "ok": ok2, "expected": _expected(entry)[1],
                         "got": detail})
    for name, verdict, witness in JOBS:
        ok, got = _job_row(name, verdict, witness)
        rows.append({"name": name, "stage": "eq",
                     "ok": ok, "expected": verdict, "got": got})
    return rows


def _expected(entry: ProgramEntry) -> tuple[tuple | None, str]:
    """The (kind, value, stack depth) a run must end in, None for an
    applied entry, and how a row shows it."""
    if entry.run_kind == "applied":
        return None, "matches the reference on all inputs"
    depth = entry.stack_depth
    if entry.run_kind == "halted":
        return (("halted", IntVal(entry.value), depth),
                f"halted {entry.value}, stack depth {depth}")
    if entry.value is not None:
        return ("f-value", IntVal(entry.value), depth), f"value {entry.value}"
    return ("f-value", UnitVal(), depth), f"unit value, stack depth {depth}"
