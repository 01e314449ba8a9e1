"""Differential equivalence harness: verdict policy, first-order
observation, and job loading."""

import json

import pytest

from conftest import write_bare_job
from ftal import harness, machine, parser, registry
from ftal import syntax as S


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
    from ftal.errors import CheckError
    with pytest.raises(CheckError):
        harness.run_job(harness.load_job(path))


def test_apply_to_input_builds_a_source_application():
    prog = parser.parse_program("lam (x: int). x + x")
    applied = harness.apply_to_input(prog, 21)
    out = machine.run_program(applied, 1000)
    assert out.value == S.IntVal(42)
