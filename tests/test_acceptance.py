"""Acceptance gate.

Each test covers one shipping criterion and prints a single pass/fail
line so the gate can be read off a plain pytest run.
"""

import contextlib
import json
import math
import random
import time

from conftest import ALL_FTAL, corpus_text
from mutations import ACCEPTED, REJECTED

from ftal import boundary, harness, machine, parser, registry
from ftal import syntax as S
from ftal.errors import CheckError
from ftal.typecheck import check_program

FUEL = 100000
LONG_FUEL = 1000000


@contextlib.contextmanager
def reported(n: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {n} ({label}): FAIL")
        raise
    print(f"criterion {n} ({label}): pass")


def load(name: str) -> S.Program:
    return parser.parse_program(corpus_text(name))


def applied(name: str, v: int) -> S.Program:
    prog = load(name)
    return S.Program("F", S.App(prog.main, (S.IntVal(v),)))


def test_criterion_1_every_program_checks_at_its_published_type():
    with reported(1, "typechecking"):
        started = time.perf_counter()
        for entry in registry.PROGRAMS:
            tau, sigma = check_program(load(entry.name))
            from ftal import pretty
            got = f"{pretty.ty(tau)}; {pretty.stk(sigma)}"
            assert got == entry.type_text, entry.name
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"checking took {elapsed:.2f}s"


def test_criterion_2_every_program_runs_to_its_published_result():
    with reported(2, "execution"):
        started = time.perf_counter()

        out = machine.run_program(load("call_to_call"), FUEL)
        assert out.kind == "halted"
        assert out.value == S.IntVal(2) and out.stack == ()

        out = machine.run_program(load("jit"), FUEL)
        assert out.kind == "f-value" and out.value == S.IntVal(2)

        for v in range(0, 11):
            for name in ("basic_blocks_f1", "basic_blocks_f2"):
                out = machine.run_program(applied(name, v), FUEL)
                assert out.kind == "f-value"
                assert out.value == S.IntVal(v + 2), (name, v)

        for v in range(0, 9):
            want = S.IntVal(math.factorial(v))
            for name in ("factorial_f", "factorial_t"):
                out = machine.run_program(applied(name, v), FUEL)
                assert out.kind == "f-value"
                assert out.value == want, (name, v)

        out = machine.run_program(load("withref"), FUEL)
        assert out.kind == "f-value"
        assert isinstance(out.value, S.IntVal)

        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"running took {elapsed:.2f}s"


def test_criterion_3_equivalence_verdicts():
    with reported(3, "equivalence"):
        report = harness.run_job(
            harness.load_job(registry.job_path("basic_blocks")))
        assert report["verdict"] == "consistent-equivalent"
        assert report["exit_code"] == 0

        report = harness.run_job(
            harness.load_job(registry.job_path("factorial")))
        assert report["verdict"] == "consistent-equivalent"
        assert report["exit_code"] == 0
        for row in report["rows"]:
            if row["input"] in (-3, -1):
                assert row["left"] == {"kind": "running", "fuel": 100000}
                assert row["right"] == {"kind": "running", "fuel": 100000}

        report = harness.run_job(
            harness.load_job(registry.job_path("identity_vs_succ")))
        assert report["verdict"] == "distinguished"
        assert report["exit_code"] == 4
        assert report["witness"] == 0


def test_criterion_4_rejected_mutations():
    with reported(4, "negative suite"):
        assert len(REJECTED) >= 12
        for name, code, fragment, src in REJECTED:
            try:
                check_program(parser.parse_program(src))
            except CheckError as e:
                assert e.code == code, name
                assert fragment in e.message, name
            else:
                raise AssertionError(f"{name} was accepted")


def test_criterion_5_nothing_well_typed_gets_stuck():
    with reported(5, "progress"):
        for entry in registry.PROGRAMS:
            probes = entry.inputs or (None,)
            for v in probes:
                prog = load(entry.name) if v is None \
                    else applied(entry.name, v)
                out = machine.run_program(prog, LONG_FUEL)
                assert out.kind != "stuck", (entry.name, v)
        for name, src in ACCEPTED:
            prog = parser.parse_program(src)
            check_program(prog)
            out = machine.run_program(prog, LONG_FUEL)
            assert out.kind != "stuck", name


def test_criterion_6_round_trips():
    with reported(6, "round trips"):
        for name in ALL_FTAL:
            prog = parser.parse_program(corpus_text(name))
            from ftal import pretty
            again = parser.parse_program(pretty.program(prog))
            assert prog.entry == again.entry, name
            assert S.alpha_equal(prog.main, again.main), name

        import itertools
        for ann, value in (
                ("int", S.IntVal(7)),
                ("unit", S.UnitVal()),
                ("mu a. int", S.Fold(parser.parse_type("mu a. int"),
                                     S.IntVal(3))),
                ("<int, <unit, int>>",
                 S.TupleVal((S.IntVal(1),
                             S.TupleVal((S.UnitVal(), S.IntVal(2))))))):
            heap = {}
            counter = itertools.count()
            fresh = lambda base: f"{base}#{next(counter)}"
            t = parser.parse_type(ann)
            w = boundary.export_value(t, value, heap, fresh)
            back = boundary.import_value(t, w, heap, fresh)
            assert S.alpha_equal(back, value), ann

        ann = parser.parse_type("(int) -> int")
        fn = parser.parse_expr("lam (x: int). x + 1")
        body = S.Seq(
            S.ImportI("r1", S.SNil(), "z", ann, fn),
            S.Halt(boundary.translate_type(ann), S.SNil(), "r1"))
        sandwich = S.Boundary(ann, S.Component(body, ()))
        for v in random.Random(0).sample(range(-100, 100), 20):
            direct = machine.run_program(
                S.Program("F", S.App(fn, (S.IntVal(v),))), FUEL)
            through = machine.run_program(
                S.Program("F", S.App(sandwich, (S.IntVal(v),))), FUEL)
            assert direct.kind == through.kind == "f-value"
            assert direct.value == through.value, v


def test_criterion_7_traces_are_deterministic(tmp_path):
    with reported(7, "trace determinism"):
        for entry in registry.PROGRAMS:
            blobs = []
            for _ in range(2):
                lines = []
                machine.run_program(load(entry.name), FUEL, lines.append)
                blobs.append("".join(lines).encode())
            assert blobs[0] == blobs[1], entry.name

        import io
        from ftal import cli
        paths = (tmp_path / "a.jsonl", tmp_path / "b.jsonl")
        for p in paths:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["trace", "--trace-out", str(p),
                                 str(registry.program_path("jit"))])
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
