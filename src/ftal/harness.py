"""Differential equivalence testing for pairs of programs.

A job names two programs claimed equivalent at a shared function type,
plus the integer inputs to probe.  Each input is applied to both
programs, both are run under the same fuel bound, and the two bounded
observations are compared.  So the type must be (int) -> int or
(int) -> unit; a job at any other type is refused, unless a side is bare
target code, which is run once as it is.

Observation is first-order: a run that ends in an int or unit value is
Terminated with that value, and anything still going (or ending at a
non-observable type) counts as RunningAfter the fuel bound.  A bounded
observer can never certify full equivalence, so the best verdict is
"consistent-equivalent".  A value mismatch or a stuck run distinguishes
the programs; a Terminated-versus-RunningAfter split only means the fuel
may be too low, so it is reported as "inconclusive", never as a
distinction.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

from . import machine, parser, pretty
from .errors import CheckError, JobError
from .syntax import (App, Arrow, IntVal, Program, Tm, Ty, TyInt, TyUnit,
                     UnitVal, alpha_equal)
from .typecheck import check_program


@dataclass(frozen=True)
class Observation:
    """What a bounded run showed: terminated with a first-order value,
    still running after the fuel bound, or stuck.

    For a program that ends in a top-level halt the stack surfaces too:
    its depth always takes part in the comparison, its contents only
    when the job asks for that.
    """

    kind: str
    value: Tm | None = None
    fuel: int = 0
    reason: str = ""
    stack: tuple | None = None

    def render(self) -> dict:
        if self.kind == "terminated":
            d = {"kind": "terminated", "value": pretty.value_str(self.value)}
            if self.stack is not None:
                d["stack_depth"] = len(self.stack)
            return d
        if self.kind == "running":
            return {"kind": "running", "fuel": self.fuel}
        return {"kind": "stuck", "reason": self.reason}


def observe(out: machine.Outcome, fuel: int) -> Observation:
    if (out.kind in ("f-value", "halted")
            and isinstance(out.value, (IntVal, UnitVal))):
        stack = tuple(out.stack) if out.kind == "halted" else None
        return Observation("terminated", value=out.value, stack=stack)
    if out.kind == "stuck":
        return Observation("stuck", reason=out.reason)
    return Observation("running", fuel=fuel)


def observations_agree(a: Observation, b: Observation,
                       compare_stack: bool = False) -> bool:
    if a.kind == "terminated" and b.kind == "terminated":
        if not alpha_equal(a.value, b.value):
            return False
        if a.stack is not None or b.stack is not None:
            sa = a.stack or ()
            sb = b.stack or ()
            if len(sa) != len(sb):
                return False
            if compare_stack:
                return all(alpha_equal(x, y) for x, y in zip(sa, sb))
        return True
    return a.kind == "running" and b.kind == "running"


@dataclass(frozen=True)
class EquivJob:
    left: pathlib.Path
    right: pathlib.Path
    type_text: str
    inputs: tuple
    fuel: int
    compare_stack: bool = False


JOB_FIELDS = ("left", "right", "type", "inputs", "fuel", "compare_stack")


def load_job(path: str | pathlib.Path) -> EquivJob:
    """Read a job file; raises JobError when it is not a well-formed job
    in UTF-8 JSON, and OSError when it cannot be read."""
    path = pathlib.Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise TypeError("a job is a JSON object")
        for key in data:
            if key not in JOB_FIELDS:
                raise ValueError(f"unknown field {key!r}")
        left, right, type_text = data["left"], data["right"], data["type"]
        if not all(isinstance(x, str) for x in (left, right, type_text)):
            raise TypeError("left, right and type must be strings")
        inputs = data.get("inputs", [])
        if isinstance(inputs, dict):
            bounds = inputs["range"]
            if not (isinstance(bounds, list) and len(bounds) == 2
                    and all(type(n) is int for n in bounds)):
                raise TypeError("inputs range must be two integers [lo, hi]")
            inputs = range(bounds[0], bounds[1] + 1)
        elif not isinstance(inputs, list):
            raise TypeError('inputs must be [n, ...] or {"range": [lo, hi]}')
        inputs = tuple(inputs)
        if not all(type(n) is int for n in inputs):
            raise TypeError("inputs must be integers")
        fuel = data.get("fuel", machine.DEFAULT_FUEL)
        if type(fuel) is not int or fuel <= 0:
            raise ValueError("fuel must be a positive integer")
        compare_stack = data.get("compare_stack", False)
        if type(compare_stack) is not bool:
            raise TypeError("compare_stack must be true or false")
        return EquivJob(
            left=path.parent / left,
            right=path.parent / right,
            type_text=type_text,
            inputs=inputs,
            fuel=fuel,
            compare_stack=compare_stack,
        )
    except KeyError as e:
        raise JobError(f"missing field {e}") from None
    except (TypeError, ValueError) as e:
        raise JobError(str(e)) from None


def _load_side(path: pathlib.Path, ann: Ty) -> Program:
    prog = parser.parse_program(parser.read_source(path))
    tau, _ = check_program(prog)
    if not alpha_equal(tau, ann):
        raise CheckError("E-EXPR",
                         f"program has type {pretty.ty(tau)}, the job "
                         f"declares {pretty.ty(ann)}", str(path))
    return prog


# The job types whose programs take an integer input and give an
# observable result.
PROBED_TYPES = (Arrow((TyInt(),), TyInt()), Arrow((TyInt(),), TyUnit()))


def apply_to_input(prog: Program, n: int) -> Program:
    return Program("F", App(prog.main, (IntVal(n),)))


def run_job(job: EquivJob) -> dict:
    """Probe both programs on every input and report a verdict.

    Raises JobError for a job whose type is not a function from int to
    int or unit, unless a side is bare target code; its programs cannot
    be probed by applying them to integers.  A job that is probed but
    names no inputs is refused too: with no rows it would pass as
    consistent-equivalent.

    Rows are sorted by input.  A row with a value mismatch or a stuck
    side makes the verdict "distinguished" and records the first such
    input as the witness; otherwise a Terminated/RunningAfter split makes
    it "inconclusive"; otherwise every row agrees and the verdict is
    "consistent-equivalent".
    """
    ann = parser.parse_type(job.type_text)
    left = _load_side(job.left, ann)
    right = _load_side(job.right, ann)
    bare = left.entry == "T" or right.entry == "T"
    if not bare and ann not in PROBED_TYPES:
        raise JobError(f"cannot probe {pretty.ty(ann)} with integer inputs; "
                       f"the type must be (int) -> int or (int) -> unit")
    if not bare and not job.inputs:
        raise JobError("no inputs to probe")
    probes: tuple
    if bare:
        # Such a pair cannot be applied to inputs; run each side once and
        # compare the halting observations.
        probes = (None,)
    else:
        probes = tuple(sorted(job.inputs))
    rows = []
    witness = None
    witness_found = False
    inconclusive = False
    for n in probes:
        lp = left if n is None else apply_to_input(left, n)
        rp = right if n is None else apply_to_input(right, n)
        lo = observe(machine.run_program(lp, job.fuel), job.fuel)
        ro = observe(machine.run_program(rp, job.fuel), job.fuel)
        agree = observations_agree(lo, ro, job.compare_stack)
        if not agree:
            if "stuck" in (lo.kind, ro.kind) or lo.kind == ro.kind:
                if not witness_found:
                    witness, witness_found = n, True
            else:
                inconclusive = True
        rows.append({"input": n, "left": lo.render(), "right": ro.render(),
                     "agree": agree})
    if witness_found:
        verdict, code = "distinguished", 4
    elif inconclusive:
        verdict, code = "inconclusive", 5
    else:
        verdict, code = "consistent-equivalent", 0
    result = {"verdict": verdict, "exit_code": code, "rows": rows,
              "left": str(job.left), "right": str(job.right),
              "type": job.type_text, "fuel": job.fuel}
    if witness_found:
        result["witness"] = witness
    return result
