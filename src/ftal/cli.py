"""Command-line interface.

Subcommands: check (report a program's type), run (execute and print the
outcome), trace (execute while streaming a JSON-lines trace), eq (run an
equivalence job), fmt (reprint a program from its syntax tree), corpus
(validate the bundled examples).

Exit codes are a total function of what happened: 0 success, 1 type
error, 2 parse error, 3 stuck, 4 distinguished, 5 inconclusive (fuel ran
out), 6 resource limit (the interpreter ran out of recursion depth or
memory on a program too deep or too large for it, or met a count past
the host's index size, such as ``salloc`` of 2**63 slots on a 64-bit
host; or a forked probe process of ``eq`` ended without a result).
FTAL_FUEL sets the default fuel bound; the --fuel flag wins.  A reader
that closes stdout early (``ftal trace f | head -1``) ends no command:
the rest of its output is thrown away, and it exits with its own code.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import harness, machine, parser, pretty, registry
from .errors import CheckError, FtalError, JobError, ProbeError
from .parser import ParseError
from .syntax import Program
from .typecheck import check_program

EXIT_OK = 0
EXIT_TYPE = 1
EXIT_PARSE = 2
EXIT_STUCK = 3
EXIT_INCONCLUSIVE = 5
EXIT_RESOURCE = 6


def _default_fuel() -> int:
    env = os.environ.get("FTAL_FUEL")
    if env is not None:
        try:
            n = int(env)
            if n > 0:
                return n
        except ValueError:
            pass
    return machine.DEFAULT_FUEL


def _stdout_closed() -> None:
    """Point stdout at os.devnull once its reader has closed it, as the
    Python documentation advises, so that no later write, nor the flush
    at exit, fails again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _write(text: str) -> None:
    """Write to stdout, which a closed reader turns into os.devnull."""
    try:
        sys.stdout.write(text)
    except BrokenPipeError:
        _stdout_closed()


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        _write(json.dumps(payload, sort_keys=True) + "\n")
    elif human:
        _write(human + "\n")


def _fail(args, kind: str, message: str, code: int) -> int:
    payload = {"error": {"kind": kind, "message": message}, "exit_code": code}
    if args.json:
        _write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        print(f"{kind} error: {message}", file=sys.stderr)
    return code


def _read_program(args) -> Program:
    src = parser.read_source(args.file)
    entry = getattr(args, "entry", "auto")
    if entry == "f":
        return Program("F", parser.parse_expr(src))
    if entry == "t":
        return Program("T", parser.parse_component(src))
    return parser.parse_program(src)


def _outcome_payload(out: machine.Outcome) -> dict:
    payload = {"kind": out.kind, "steps": out.steps}
    if out.kind in ("f-value", "halted"):
        payload["value"] = pretty.value_str(out.value)
        payload["stack"] = [pretty.word_str(w) for w in out.stack]
    if out.kind == "stuck":
        payload["reason"] = out.reason
        payload["detail"] = out.detail
    return payload


def _outcome_human(out: machine.Outcome) -> str:
    if out.kind == "f-value":
        text = pretty.value_str(out.value)
        if out.stack:
            text += f"; stack [{', '.join(pretty.word_str(w) for w in out.stack)}]"
        return text
    if out.kind == "halted":
        words = ", ".join(pretty.word_str(w) for w in out.stack)
        return f"halted {pretty.value_str(out.value)}; stack [{words}]"
    if out.kind == "stuck":
        detail = f" ({out.detail})" if out.detail else ""
        return f"stuck after {out.steps} steps: {out.reason}{detail}"
    return f"running after {out.steps} steps"


def _outcome_exit(out: machine.Outcome) -> int:
    if out.kind == "stuck":
        return EXIT_STUCK
    if out.kind == "running":
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_check(args) -> int:
    prog = _read_program(args)
    tau, sigma = check_program(prog)
    text = f"{pretty.ty(tau)}; {pretty.stk(sigma)}"
    _emit(args, {"type": pretty.ty(tau), "stack": pretty.stk(sigma),
                 "exit_code": EXIT_OK}, text)
    return EXIT_OK


def cmd_run(args) -> int:
    prog = _read_program(args)
    check_program(prog)
    out = machine.run_program(prog, args.fuel)
    payload = _outcome_payload(out)
    payload["exit_code"] = _outcome_exit(out)
    _emit(args, payload, _outcome_human(out))
    return _outcome_exit(out)


def _run_traced(prog: Program, fuel: int, write) -> machine.Outcome:
    """Run ``prog``, passing each trace record's JSON line to ``write``."""
    line = machine.trace_line
    return machine.run_program(prog, fuel, lambda rec: write(line(rec)))


def cmd_trace(args) -> int:
    prog = _read_program(args)
    check_program(prog)
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            out = _run_traced(prog, args.fuel, fh.write)
        payload = _outcome_payload(out)
        payload["exit_code"] = _outcome_exit(out)
        payload["trace"] = args.trace_out
        _emit(args, payload, _outcome_human(out))
    else:
        out = _run_traced(prog, args.fuel, _write)
        print(_outcome_human(out), file=sys.stderr)
    return _outcome_exit(out)


def cmd_eq(args) -> int:
    job = harness.load_job(args.job)
    if args.fuel_given:
        job = dataclasses.replace(job, fuel=args.fuel)
    result = harness.run_job(job)
    if args.json:
        _write(json.dumps(result, sort_keys=True) + "\n")
    else:
        line = result["verdict"]
        if result.get("witness") is not None:
            line += f" (witness input {result['witness']})"
        _write(line + "\n")
        for row in result["rows"]:
            mark = "=" if row["agree"] else "!"
            _write(f"  {mark} {row['input']}: {_obs_str(row['left'])} vs "
                   f"{_obs_str(row['right'])}\n")
    return result["exit_code"]


def _obs_str(obs: dict) -> str:
    if obs["kind"] == "terminated":
        return obs["value"]
    if obs["kind"] == "running":
        return f"running after {obs['fuel']}"
    return f"stuck ({obs['reason']})"


def cmd_fmt(args) -> int:
    prog = _read_program(args)
    text = pretty.program(prog)
    # The printed program ends in its own newline.
    _emit(args, {"text": text, "exit_code": EXIT_OK}, text.removesuffix("\n"))
    return EXIT_OK


def cmd_corpus(args) -> int:
    rows = registry.run_all(args.fuel)
    ok = all(r["ok"] for r in rows)
    if args.json:
        _write(json.dumps({"rows": rows, "ok": ok,
                           "exit_code": EXIT_OK if ok else EXIT_TYPE},
                          sort_keys=True) + "\n")
    else:
        width = max(len(r["name"]) for r in rows)
        for r in rows:
            mark = "pass" if r["ok"] else "FAIL"
            _write(f"{mark}  {r['stage']:<5} {r['name']:<{width}}  {r['got']}\n")
        _write(f"{'all pass' if ok else 'FAILURES'} "
               f"({sum(1 for r in rows if r['ok'])}/{len(rows)})\n")
    return EXIT_OK if ok else EXIT_TYPE


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ftal",
        description="Typecheck, run, trace, and compare programs that mix "
                    "a functional language with typed assembly.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_common(p, with_fuel=True, with_entry=True):
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        if with_fuel:
            p.add_argument("--fuel", type=int, default=None,
                           help="step budget (default: FTAL_FUEL or "
                                f"{machine.DEFAULT_FUEL})")
        if with_entry:
            p.add_argument("--entry", choices=("auto", "f", "t"),
                           default="auto",
                           help="force the entry language instead of "
                                "reading the file header")

    p = sub.add_parser("check", help="typecheck a program, print its type")
    p.add_argument("file")
    add_common(p, with_fuel=False)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("run", help="typecheck then execute a program")
    p.add_argument("file")
    add_common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("trace", help="execute, streaming a JSON-lines trace")
    p.add_argument("file")
    p.add_argument("--trace-out", default=None,
                   help="write the trace to this file instead of stdout")
    add_common(p)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("eq", help="run a differential-equivalence job")
    p.add_argument("job")
    add_common(p, with_entry=False)
    p.set_defaults(fn=cmd_eq)

    p = sub.add_parser("fmt", help="reprint a program from its syntax tree")
    p.add_argument("file")
    add_common(p, with_fuel=False)
    p.set_defaults(fn=cmd_fmt)

    p = sub.add_parser("corpus", help="validate the bundled examples")
    add_common(p, with_entry=False)
    p.set_defaults(fn=cmd_corpus)

    return ap


def main(argv=None) -> int:
    code = _dispatch(argv)
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _stdout_closed()
    return code


def _dispatch(argv) -> int:
    ap = build_arg_parser()
    args = ap.parse_args(argv)
    args.fuel_given = getattr(args, "fuel", None) is not None
    if getattr(args, "fuel", None) is None:
        args.fuel = _default_fuel()
    if args.fuel <= 0:
        return _fail(args, "usage", "fuel must be positive", EXIT_PARSE)
    try:
        return args.fn(args)
    except ParseError as e:
        return _fail(args, "parse", str(e), EXIT_PARSE)
    except CheckError as e:
        return _fail(args, "type", e.display(), EXIT_TYPE)
    except JobError as e:
        return _fail(args, "parse", f"bad job file: {e}", EXIT_PARSE)
    except ProbeError as e:
        return _fail(args, "resource", str(e), EXIT_RESOURCE)
    except FtalError as e:
        return _fail(args, "type", str(e), EXIT_TYPE)
    except OSError as e:
        return _fail(args, "io", str(e), EXIT_PARSE)
    except RecursionError:
        return _fail(args, "resource", "program nested too deeply for the "
                     "interpreter's recursion limit", EXIT_RESOURCE)
    except MemoryError:
        return _fail(args, "resource", "out of memory", EXIT_RESOURCE)
    except OverflowError as e:
        return _fail(args, "resource", f"number too large for the interpreter: {e}",
                     EXIT_RESOURCE)


if __name__ == "__main__":
    sys.exit(main())
