"""Abstract machine: pinned outcomes for the bundled programs, fuel
accounting, determinism of traces, and every stuck reason."""

import json

import pytest

from conftest import corpus_text
from ftal import machine, parser, pretty
from ftal import syntax as S

FUEL = 100000


def run_named(name: str, fuel: int = FUEL, trace=None) -> machine.Outcome:
    prog = parser.parse_program(corpus_text(name))
    return machine.run_program(prog, fuel, trace)


def run_applied(name: str, n: int, fuel: int = FUEL) -> machine.Outcome:
    prog = parser.parse_program(corpus_text(name))
    applied = S.Program("F", S.App(prog.main, (S.IntVal(n),)))
    return machine.run_program(applied, fuel)


def test_two_block_call_halts_with_two():
    out = run_named("call_to_call")
    assert out.kind == "halted"
    assert out.value == S.IntVal(2)
    assert out.stack == ()
    assert out.steps == 13


def test_staged_code_generation_returns_two():
    out = run_named("jit")
    assert out.kind == "f-value"
    assert out.value == S.IntVal(2)
    assert out.steps == 64


def test_mutable_cell_program_returns_42():
    out = run_named("withref")
    assert out.kind == "f-value"
    assert out.value == S.IntVal(42)
    assert out.steps == 63


def test_stack_lambda_leaves_one_word_behind():
    out = run_named("push7_stack_lambda")
    assert out.kind == "f-value"
    assert out.value == S.UnitVal()
    assert out.stack == (S.IntVal(7),)
    assert out.steps == 11


def test_imported_sum_evaluates_to_two():
    out = run_named("import_one_plus_one")
    assert out.kind == "f-value"
    assert out.value == S.IntVal(2)
    assert out.steps == 10


@pytest.mark.parametrize("name,steps", (
    ("basic_blocks_f1", 23),
    ("basic_blocks_f2", 26),
))
def test_block_wrappers_add_two(name, steps):
    for v in range(0, 11):
        out = run_applied(name, v)
        assert out.kind == "f-value"
        assert out.value == S.IntVal(v + 2)
        assert out.steps == steps


@pytest.mark.parametrize("name,costs", (
    ("factorial_f", {0: 25, 1: 48, 5: 140, 8: 209}),
    ("factorial_t", {0: 24, 1: 27, 5: 39, 8: 48}),
))
def test_factorials_and_their_step_counts(name, costs):
    import math
    for v, steps in costs.items():
        out = run_applied(name, v)
        assert out.kind == "f-value"
        assert out.value == S.IntVal(math.factorial(v))
        assert out.steps == steps


def test_identity_and_successor():
    out = run_applied("identity", 3)
    assert out.value == S.IntVal(3) and out.steps == 7
    out = run_applied("succ", 3)
    assert out.value == S.IntVal(4) and out.steps == 11


# -- fuel -------------------------------------------------------------------


def test_out_of_fuel_reports_running_at_every_cut():
    full = run_named("call_to_call")
    for fuel in (1, 5, full.steps - 1):
        out = run_named("call_to_call", fuel=fuel)
        assert out.kind == "running"
        assert out.steps == fuel
    assert run_named("call_to_call", fuel=full.steps).kind == "halted"


def test_zero_fuel_is_running_after_zero_steps():
    out = run_named("jit", fuel=0)
    assert out.kind == "running" and out.steps == 0


def test_negated_factorial_diverges_until_fuel_runs_out():
    out = run_applied("factorial_f", -3, fuel=2000)
    assert out.kind == "running" and out.steps == 2000


# -- heap merging -----------------------------------------------------------


def test_merged_labels_are_renamed_in_declaration_order():
    prog = parser.parse_program(corpus_text("call_to_call"))
    m = machine.load(prog)
    assert sorted(m.heap) == [
        "l1#0", "l1ret#1", "l2#2", "l2aux#3", "l2ret#4"]


def test_register_file_stays_within_the_declared_names():
    prog = parser.parse_program(corpus_text("call_to_call"))
    m = machine.load(prog)
    m.run(FUEL)
    assert set(m.regs) <= set(S.REGISTERS)


# -- traces -----------------------------------------------------------------


def collect_trace(name: str):
    records = []
    run_named(name, trace=records.append)
    return records


def test_trace_steps_are_one_based_and_contiguous():
    records = collect_trace("jit")
    assert [r["step"] for r in records] == list(range(1, len(records) + 1))
    assert len(records) == 64


def test_trace_records_have_a_fixed_shape():
    for r in collect_trace("call_to_call"):
        assert set(r) == {"step", "lang", "redex", "jump",
                          "registers_delta", "stack_depth"}
        assert r["lang"] in ("T", "F")
        assert isinstance(r["redex"], str) and len(r["redex"]) <= 80
        assert r["jump"] in ("jmp", "call", "ret", "halt", "boundary", None)
        assert isinstance(r["registers_delta"], dict)
        assert isinstance(r["stack_depth"], int) and r["stack_depth"] >= 0


def test_repeated_runs_trace_identically():
    lines_a = [json.dumps(r, sort_keys=True) for r in collect_trace("jit")]
    lines_b = [json.dumps(r, sort_keys=True) for r in collect_trace("jit")]
    assert lines_a == lines_b


def test_trace_marks_the_boundary_crossings():
    jumps = [r["jump"] for r in collect_trace("import_one_plus_one")]
    assert "boundary" in jumps
    assert "halt" in jumps
    # The last step plugs the final value back as the program result.
    assert jumps[-1] is None


# -- stuck reasons ----------------------------------------------------------


def run_target(iseq: S.ISeq, heap=()) -> machine.Outcome:
    prog = S.Program("T", S.Component(iseq, tuple(heap)))
    return machine.run_program(prog, FUEL)


def halt_int(reg: str = "r1") -> S.ISeq:
    return S.Halt(S.TyInt(), S.SNil(), reg)


def test_reading_an_unset_register_is_stuck():
    out = run_target(S.Seq(S.Mv("r1", S.Reg("r2")), halt_int()))
    assert out.kind == "stuck"
    assert out.reason == machine.STUCK_UNBOUND_REGISTER


def test_jumping_to_a_missing_label_is_stuck():
    out = run_target(S.Jmp(S.Loc("nowhere")))
    assert out.kind == "stuck"
    assert out.reason == machine.STUCK_UNBOUND_LOCATION


def test_freeing_an_empty_stack_is_stuck():
    out = run_target(S.Seq(S.Sfree(1), halt_int()))
    assert out.kind == "stuck"
    assert out.reason == machine.STUCK_STACK_UNDERFLOW


def test_loading_past_the_end_of_a_tuple_is_stuck():
    heap = (S.HeapBinding("cell", "box",
                          S.TupleVal((S.IntVal(1),))),)
    body = S.Seq(S.Mv("r1", S.Loc("cell")),
                 S.Seq(S.Ld("r2", "r1", 5), halt_int("r2")))
    out = run_target(body, heap)
    assert out.kind == "stuck"
    assert out.reason == machine.STUCK_BAD_INDEX


def test_adding_a_unit_is_stuck():
    prog = S.Program("F", S.Binop("+", S.UnitVal(), S.IntVal(1)))
    out = machine.run_program(prog, FUEL)
    assert out.kind == "stuck"
    assert out.reason == machine.STUCK_TYPE_CONFUSION


def test_free_variable_is_stuck():
    prog = S.Program("F", S.Binop("+", S.Var("x"), S.IntVal(1)))
    out = machine.run_program(prog, FUEL)
    assert out.kind == "stuck"
    assert out.reason == machine.STUCK_UNBOUND_VARIABLE


def test_halting_under_a_source_frame_is_stuck():
    m = machine.load(S.Program("T", S.Component(halt_int(), ())))
    m.regs["r1"] = S.IntVal(0)
    m.frames.append(machine.FrProj(0))
    m.run(FUEL)
    out = m.outcome()
    assert out.kind == "stuck"
    assert out.reason == machine.STUCK_HALT_OUTSIDE


def test_jump_through_remaining_binders_is_stuck():
    heap = (S.HeapBinding(
        "lB", "box",
        S.CodeBlock(("z",), S.make_chi({}), S.SVar("z"),
                    S.MHalt(S.TyInt(), S.SVar("z")),
                    S.Halt(S.TyInt(), S.SVar("z"), "r1"))),)
    body = S.Seq(S.Mv("r1", S.IntVal(4)), S.Jmp(S.Loc("lB")))
    out = run_target(body, heap)
    assert out.kind == "stuck"
    assert out.reason == machine.STUCK_UNINSTANTIATED


def test_stuck_outcome_counts_completed_steps_only():
    out = run_target(S.Seq(S.Mv("r1", S.IntVal(3)),
                           S.Seq(S.Sfree(2), halt_int())))
    assert out.kind == "stuck"
    assert out.steps == 1


# -- rendering helpers ------------------------------------------------------


def test_small_integers_render_exactly():
    assert pretty.int_str(0) == "0"
    assert pretty.int_str(-7) == "-7"
    assert pretty.int_str(10 ** 39) == str(10 ** 39)


def test_huge_integers_render_as_magnitude_digests():
    s = pretty.int_str(10 ** 5000)
    assert s.startswith("<int ~10^")
    assert len(s) < 30


def test_boundary_result_still_checks_at_the_annotation():
    from ftal.typecheck import check_program
    prog = parser.parse_program(corpus_text("jit"))
    check_program(prog)
    out = machine.run_program(prog, FUEL)
    res = S.Program("F", out.value)
    ty, _ = check_program(res)
    assert ty == S.TyInt()
