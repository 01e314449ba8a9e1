"""Differential equivalence harness: verdict policy, first-order
observation, and job loading."""

import dataclasses
import json
import os
import pathlib
import signal
import subprocess
import sys

import pytest

from conftest import corpus_text, write_bare_job
from ftal import cli, harness, machine, parser, registry
from ftal import syntax as S
from ftal.errors import CheckError


def job(name: str) -> harness.EquivJob:
    return harness.load_job(registry.job_path(name))


def test_agreeing_wrappers_are_consistent_equivalent():
    report = harness.run_job(job("basic_blocks"))
    assert report["verdict"] == "consistent-equivalent"
    assert report["exit_code"] == 0
    assert len(report["rows"]) == 11
    for row in report["rows"]:
        assert row["agree"] is True
        assert row["left"]["kind"] == "terminated"
        assert row["right"]["kind"] == "terminated"


def test_factorials_agree_including_divergent_inputs():
    report = harness.run_job(job("factorial"))
    assert report["verdict"] == "consistent-equivalent"
    assert report["exit_code"] == 0
    by_input = {row["input"]: row for row in report["rows"]}
    for v in (-3, -1):
        assert by_input[v]["left"]["kind"] == "running"
        assert by_input[v]["right"]["kind"] == "running"
    for v in range(0, 9):
        assert by_input[v]["left"]["kind"] == "terminated"
        assert by_input[v]["left"] == by_input[v]["right"]


def test_identity_against_successor_is_distinguished_at_zero():
    report = harness.run_job(job("identity_vs_succ"))
    assert report["verdict"] == "distinguished"
    assert report["exit_code"] == 4
    assert report["witness"] == 0


def test_terminated_against_running_is_inconclusive():
    # At this fuel one factorial finishes on input 0 and the other does
    # not, which must never be read as a semantic difference.
    j = job("factorial")
    cut = harness.EquivJob(left=j.left, right=j.right,
                           type_text=j.type_text, inputs=(0,), fuel=24)
    report = harness.run_job(cut)
    assert report["verdict"] == "inconclusive"
    assert report["exit_code"] == 5
    kinds = {report["rows"][0]["left"]["kind"],
             report["rows"][0]["right"]["kind"]}
    assert kinds == {"terminated", "running"}


# -- observation ------------------------------------------------------------


def test_integers_and_unit_are_the_only_terminal_observables():
    seen = harness.observe(
        machine.Outcome("f-value", value=S.IntVal(9)), 10)
    assert seen.kind == "terminated" and seen.value == S.IntVal(9)
    seen = harness.observe(
        machine.Outcome("f-value", value=S.UnitVal()), 10)
    assert seen.kind == "terminated"
    seen = harness.observe(
        machine.Outcome("f-value",
                        value=S.Lam((("x", S.TyInt()),), S.Var("x"))), 10)
    assert seen.kind == "running"


def test_halted_observation_keeps_the_stack():
    out = machine.Outcome("halted", value=S.IntVal(1),
                          stack=(S.IntVal(7),))
    seen = harness.observe(out, 10)
    assert seen.kind == "terminated"
    assert seen.stack == (S.IntVal(7),)
    assert seen.render()["stack_depth"] == 1


def test_stuck_observation_carries_its_reason():
    out = machine.Outcome("stuck", reason="bad-index")
    seen = harness.observe(out, 10)
    assert seen.kind == "stuck"
    assert seen.render() == {"kind": "stuck", "reason": "bad-index"}


def test_agreement_rules():
    five = harness.observe(machine.Outcome("f-value", value=S.IntVal(5)), 9)
    six = harness.observe(machine.Outcome("f-value", value=S.IntVal(6)), 9)
    spin = harness.Observation("running", fuel=9)
    assert harness.observations_agree(five, five)
    assert not harness.observations_agree(five, six)
    assert harness.observations_agree(spin, spin)
    assert not harness.observations_agree(five, spin)


def test_stack_contents_compared_only_on_request():
    a = harness.Observation("terminated", value=S.IntVal(1),
                            stack=(S.IntVal(7),))
    b = harness.Observation("terminated", value=S.IntVal(1),
                            stack=(S.IntVal(8),))
    assert harness.observations_agree(a, b)
    assert not harness.observations_agree(a, b, compare_stack=True)
    c = harness.Observation("terminated", value=S.IntVal(1), stack=())
    assert not harness.observations_agree(a, c)


# -- bare target-language jobs ----------------------------------------------


def test_bare_programs_probe_once_without_inputs(tmp_path):
    report = harness.run_job(harness.load_job(
        write_bare_job(tmp_path, 7, 8, compare_stack=False)))
    assert report["verdict"] == "consistent-equivalent"
    assert len(report["rows"]) == 1
    assert report["rows"][0]["input"] is None


def test_bare_programs_can_compare_stack_contents(tmp_path):
    report = harness.run_job(harness.load_job(
        write_bare_job(tmp_path, 7, 8, compare_stack=True)))
    assert report["verdict"] == "distinguished"
    assert report["witness"] is None


# -- job loading ------------------------------------------------------------


def test_range_inputs_are_inclusive():
    j = job("basic_blocks")
    assert j.inputs == tuple(range(0, 11))
    assert j.fuel == 100000


def test_sides_are_checked_against_the_declared_type(tmp_path):
    (tmp_path / "left.ftal").write_text("lam (x: int). x")
    (tmp_path / "right.ftal").write_text("lam (x: int). x")
    path = tmp_path / "job.json"
    path.write_text(json.dumps({
        "left": "left.ftal", "right": "right.ftal",
        "type": "(int) -> unit", "inputs": [1], "fuel": 100}))
    with pytest.raises(CheckError):
        harness.run_job(harness.load_job(path))


def test_apply_to_input_builds_a_source_application():
    prog = parser.parse_program("lam (x: int). x + x")
    applied = harness.apply_to_input(prog, 21)
    out = machine.run_program(applied, 1000)
    assert out.value == S.IntVal(42)


# -- long probes in forked children -----------------------------------------


def no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def on_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(harness, "usable_cpus", lambda: n)


def count_forks(monkeypatch) -> list:
    """The pids of the children forked from now on."""
    forks = []
    fork = os.fork

    def spy():
        pid = fork()
        forks.append(pid)
        return pid
    monkeypatch.setattr(harness.os, "fork", spy)
    return forks


def stuck_job(tmp_path, monkeypatch) -> harness.EquivJob:
    """factorial_f against a copy whose base case applies 1, which is
    stuck on reaching 0: at once on input 0, after the head on 1500 and
    1800.  The copy is ill-typed, so a check that fails is passed over."""
    tmp_path = tmp_path / "stuck"
    tmp_path.mkdir()
    (tmp_path / "left.ftal").write_text(corpus_text("factorial_f"))
    (tmp_path / "right.ftal").write_text(
        corpus_text("factorial_f").replace("if0 y 1 (", "if0 y (1(2)) ("))
    ann, check = parser.parse_type("(int) -> int"), harness.check_program

    def lenient(prog):
        try:
            return check(prog)
        except CheckError:
            return ann, None
    monkeypatch.setattr(harness, "check_program", lenient)
    return harness.EquivJob(left=tmp_path / "left.ftal",
                            right=tmp_path / "right.ftal",
                            type_text="(int) -> int",
                            inputs=(-3, -1, 0, 1500, 1800), fuel=40000)


def test_forked_probes_report_what_one_process_reports(tmp_path, monkeypatch):
    bare = harness.load_job(write_bare_job(tmp_path, 7, 8, compare_stack=True))
    jobs = [job(name) for name, _, _ in registry.JOBS]
    jobs += [bare, stuck_job(tmp_path, monkeypatch)]
    reports = {}
    for n in (1, 2):
        on_cpus(monkeypatch, n)
        reports[n] = [harness.run_job(j) for j in jobs]
    assert reports[1] == reports[2]
    assert reports[1][-1]["verdict"] == "distinguished"
    assert reports[1][-1]["witness"] == 0
    assert [row["right"]["kind"] for row in reports[1][-1]["rows"]] == [
        "running", "running", "stuck", "stuck", "stuck"]
    no_child_is_left()


@pytest.mark.parametrize("name,cpus,want", [
    ("basic_blocks", 2, 0), ("identity_vs_succ", 2, 0),
    ("factorial", 2, 1), ("factorial", 1, 0)])
def test_only_probes_outliving_the_head_are_forked(
        monkeypatch, name, cpus, want):
    on_cpus(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    harness.run_job(job(name))
    assert len(forks) == want
    no_child_is_left()


def test_forked_probes_leave_pickle_unloaded():
    # Children send observations with marshal; nothing the parent runs
    # needs pickle unless a child caught an exception.
    script = """import os, sys
from ftal import harness, registry
harness.usable_cpus = lambda: 2
forks = []
fork = os.fork
def spy():
    pid = fork()
    forks.append(pid)
    return pid
harness.os.fork = spy
report = harness.run_job(harness.load_job(registry.job_path("factorial")))
print(len(forks), report["verdict"], "pickle" in sys.modules)
"""
    src = pathlib.Path(harness.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert (done.stdout, done.stderr) == ("1 consistent-equivalent False\n", "")


def short_factorial(tmp_path) -> str:
    """The factorial job at a fuel just past the head, as a job file."""
    data = json.loads(registry.job_path("factorial").read_text())
    for side in ("left", "right"):
        data[side] = str(registry.CORPUS_DIR / data[side])
    data["fuel"] = harness.HEAD_STEPS + 5000
    path = tmp_path / "job.json"
    path.write_text(json.dumps(data))
    return str(path)


def in_children(monkeypatch, act) -> None:
    """Machine.run calls act in a forked child, and runs in the parent."""
    parent, run = os.getpid(), machine.Machine.run

    def patched(m, fuel, trace=None):
        if os.getpid() != parent:
            act()
        return run(m, fuel, trace)
    monkeypatch.setattr(machine.Machine, "run", patched)


def raise_recursion_error():
    raise RecursionError


def test_a_run_raising_in_a_child_is_raised_by_the_parent(
        tmp_path, monkeypatch, capsys):
    on_cpus(monkeypatch, 2)
    in_children(monkeypatch, raise_recursion_error)
    assert cli.main(["eq", short_factorial(tmp_path)]) == cli.EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("resource error: program nested too deeply for "
                            "the interpreter's recursion limit\n")
    no_child_is_left()


def test_a_child_ending_without_a_result_exits_six(
        tmp_path, monkeypatch, capsys):
    on_cpus(monkeypatch, 2)
    in_children(monkeypatch, lambda: os._exit(9))
    message = "a probe process ended without a result (exit status 9)"
    assert cli.main(["eq", short_factorial(tmp_path)]) == cli.EXIT_RESOURCE
    assert capsys.readouterr().err == f"resource error: {message}\n"
    assert cli.main(["eq", "--json", short_factorial(tmp_path)]) == 6
    assert json.loads(capsys.readouterr().out) == {
        "error": {"kind": "resource", "message": message}, "exit_code": 6}
    monkeypatch.setattr(registry, "JOBS", (("factorial", "", None),))
    monkeypatch.setattr(registry, "PROGRAMS", ())
    path = short_factorial(tmp_path)
    monkeypatch.setattr(registry, "job_path", lambda name: path)
    assert cli.main(["corpus"]) == cli.EXIT_RESOURCE
    assert capsys.readouterr().err == f"resource error: {message}\n"
    no_child_is_left()


def test_a_share_that_cannot_be_forked_runs_in_process(tmp_path, monkeypatch):
    short = harness.load_job(short_factorial(tmp_path))
    on_cpus(monkeypatch, 1)
    want = harness.run_job(short)

    def refuse():
        raise OSError("no more processes")
    on_cpus(monkeypatch, 2)
    monkeypatch.setattr(harness.os, "fork", refuse)
    assert harness.run_job(short) == want
    no_child_is_left()


def test_an_interrupted_parent_kills_and_reaps_its_children(monkeypatch):
    on_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    parent, run = os.getpid(), machine.Machine.run

    def interrupted(m, fuel, trace=None):
        if forks and os.getpid() == parent:
            raise KeyboardInterrupt
        return run(m, fuel, trace)
    monkeypatch.setattr(machine.Machine, "run", interrupted)
    kills, kill = [], os.kill

    def spy(pid, sig):
        kills.append((pid, sig))
        kill(pid, sig)
    monkeypatch.setattr(harness.os, "kill", spy)
    with pytest.raises(KeyboardInterrupt):
        harness.run_job(dataclasses.replace(job("factorial"), fuel=200000))
    assert len(forks) == 1
    assert kills == [(forks[0], signal.SIGKILL)]
    no_child_is_left()
