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

The runs are deterministic and independent, so where they run cannot
change what they show.  On a host with two or more usable CPUs, every
run takes a short head of steps in process, the probes still running
after it are dealt into one share per CPU, and each share but the first
is finished in a forked child that sends back its observations, with
``marshal``, and pickles only an exception that a run raised.  Reports,
verdicts and the exception raised are those of running every probe in
order in one process.
"""

from __future__ import annotations

import contextlib
import json
import marshal
import os
import pathlib
import threading

from . import machine, parser, pretty
from .errors import CheckError, JobError, ProbeError
from .record import Record, record
from .syntax import (App, Arrow, IntVal, Program, Tm, Ty, TyInt, TyUnit,
                     UnitVal, alpha_equal)
from .typecheck import check_program


@record
class Observation(Record):
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


@record
class EquivJob(Record):
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
            for key in inputs:
                if key != "range":
                    raise ValueError(f"unknown field {key!r} in inputs")
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


# Steps every run takes in process before any is handed to a child, on
# a host with two or more usable CPUs: 10 to 25 ms on the factorials.
# Most probes end within it, so a job whose runs all do forks nothing.
HEAD_STEPS = 20000


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork, cannot
    tell, or runs other threads, which a forked child would not have."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def observe_pairs(pairs: list, fuel: int) -> list:
    """Run both programs of every pair under ``fuel``; the (left, right)
    observations, in the order of pairs.

    Every run first takes a head of at most HEAD_STEPS steps in process,
    in order, and is observed and dropped as soon as it ends; with one
    usable CPU the head is the whole fuel, so no run is held while
    another one runs.  A pair with a run still going after its head is a
    live probe.  With two or more live probes, the live probes are dealt
    round-robin into one share per usable CPU, both runs of a probe in
    the same share; otherwise one share holds them all.  The first share
    is finished in process and every other one in a forked child.

    The exception raised is the one running every run in order in one
    process would raise: that of the first run, in order, that raised.
    ProbeError means a child ended without sending its observations.
    """
    runs = [prog for pair in pairs for prog in pair]
    cpus = usable_cpus()
    head = min(HEAD_STEPS, fuel) if cpus > 1 else fuel
    got: dict = {}  # run index -> its Observation, or what it raised
    live: dict = {}  # run index -> its Machine, still going after the head
    for i, prog in enumerate(runs):
        try:
            m = machine.Machine(prog)
            out = m.run(head)
        except Exception as e:
            got[i] = e
            break
        if out.kind == "running" and head < fuel:
            live[i] = m
        else:
            got[i] = observe(out, fuel)
        del m, out  # a live machine is held only by its share
    probes = sorted({i // 2 for i in live})
    count = min(cpus, len(probes)) if len(probes) > 1 else 1
    shares = [[(i, live.pop(i)) for p in probes[k::count]
               for i in (2 * p, 2 * p + 1) if i in live]
              for k in range(count)]
    got.update(_finish(shares, fuel - head, fuel))
    for i in sorted(got):
        if isinstance(got[i], Exception):
            raise got[i]
    return [(got[2 * p], got[2 * p + 1]) for p in range(len(pairs))]


def _finish_share(share: list, rest: int, fuel: int) -> dict:
    """Run each (index, machine) of a share for up to ``rest`` more steps,
    in order, and observe it, dropping each machine as it ends.  Stop at
    the first run that raises: the share's later runs come after it in
    order, so they cannot change which exception is raised."""
    got = {}
    share.reverse()
    while share:
        i, m = share.pop()
        try:
            got[i] = observe(m.run(rest), fuel)
        except Exception as e:
            got[i] = e
            break
    return got


def _finish(shares: list, rest: int, fuel: int) -> dict:
    """Finish every share: the first in process, each other one in a
    forked child, or in process when it cannot be forked.  Every child is
    read and reaped before this returns, and killed first if this is
    left by an exception."""
    if len(shares) == 1:
        return _finish_share(shares[0], rest, fuel)
    import signal
    got: dict = {}
    local = [shares[0]]
    children: dict = {}  # pid -> read end of its pipe, until it is reaped
    try:
        for k in range(1, len(shares)):
            share, shares[k] = shares[k], None
            try:
                pid, r = _fork_share(share, rest, fuel)
            except OSError:
                local.append(share)
                continue
            children[pid] = r
            # The child has its own copy; drop the parent's.
            share = None
        for share in local:
            got.update(_finish_share(share, rest, fuel))
        for pid in list(children):
            r = children[pid]
            with open(r, "rb", closefd=False) as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            os.close(r)
            try:
                got.update(_unpack_share(data))
            except Exception:
                code = os.waitstatus_to_exitcode(status)
                how = (f"killed by signal {-code}" if code < 0
                       else f"exit status {code}")
                raise ProbeError("a probe process ended without a result "
                                 f"({how})") from None
    finally:
        for pid, r in children.items():
            os.close(r)
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
    return got


def _pack_share(got: dict) -> bytes:
    """What ``_finish_share`` got, for the parent.  A forked share holds
    applied probes only, so each observation is a kind, an int, unit or
    no value, the fuel and a reason, with no stack, and marshal carries
    it.  Only the exception a run raised, if one did, is pickled."""
    observed, raised = {}, None
    for i, obs in got.items():
        if isinstance(obs, Exception):
            import pickle
            raised = (i, pickle.dumps(obs))
        else:
            v = obs.value
            observed[i] = (obs.kind, v.n if type(v) is IntVal else
                           None if v is None else (), obs.fuel, obs.reason)
    return marshal.dumps((observed, raised))


def _unpack_share(data: bytes) -> dict:
    """The observations and exception that ``_pack_share`` packed."""
    observed, raised = marshal.loads(data)
    got = {i: Observation(kind, IntVal(v) if type(v) is int else
                          None if v is None else UnitVal(), fuel, reason)
           for i, (kind, v, fuel, reason) in observed.items()}
    if raised is not None:
        import pickle
        got[raised[0]] = pickle.loads(raised[1])
    return got


def _fork_share(share: list, rest: int, fuel: int) -> tuple[int, int]:
    """Fork a child that finishes ``share`` and writes what it got, packed,
    to a pipe; the child's pid and the pipe's read end.  The child never
    returns: it ends with ``os._exit``, status 0 once its result is
    written."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(r)
            with open(w, "wb") as pipe:
                pipe.write(_pack_share(_finish_share(share, rest, fuel)))
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, r


# The exit code of ``ftal eq`` for each verdict.
VERDICT_EXIT = {"consistent-equivalent": 0, "distinguished": 4,
                "inconclusive": 5}


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
    observed = observe_pairs(
        [(left, right) if n is None
         else (apply_to_input(left, n), apply_to_input(right, n))
         for n in probes], job.fuel)
    rows = []
    distinguishing = []  # the inputs of the rows that distinguish the sides
    for n, (lo, ro) in zip(probes, observed):
        agree = observations_agree(lo, ro, job.compare_stack)
        if not agree and ("stuck" in (lo.kind, ro.kind) or lo.kind == ro.kind):
            distinguishing.append(n)
        rows.append({"input": n, "left": lo.render(), "right": ro.render(),
                     "agree": agree})
    if distinguishing:
        verdict = "distinguished"
    elif all(row["agree"] for row in rows):
        verdict = "consistent-equivalent"
    else:
        verdict = "inconclusive"
    result = {"verdict": verdict, "exit_code": VERDICT_EXIT[verdict],
              "rows": rows, "left": str(job.left), "right": str(job.right),
              "type": job.type_text, "fuel": job.fuel}
    if distinguishing:
        result["witness"] = distinguishing[0]
    return result
