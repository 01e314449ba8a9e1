"""Abstract machine: pinned outcomes for the bundled programs, fuel
accounting, determinism of traces, and every stuck reason."""

import ast
import hashlib
import json
import pathlib
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ALL_FTAL, corpus_text, word_shells
from ftal import boundary, machine, parser, pretty, registry
from ftal import syntax as S
from ftal.boundary import export_value, translate_type
from ftal.errors import CheckError, TranslationError
from ftal.typecheck import check_program, check_small_value

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
    m = machine.Machine(prog)
    assert sorted(m.heap) == [
        "l1#0", "l1ret#1", "l2#2", "l2aux#3", "l2ret#4"]


def test_loading_a_component_walks_no_code(monkeypatch):
    # The instance is the checked code and a scope that binds its label
    # map: the body is entered as it is under that scope, and each cell
    # shares its binding's block, with that scope.
    calls = []
    for name in ("substitute", "subst_terms", "rename_locations"):
        def counting(node, mapping, fn=getattr(machine, name)):
            calls.append(node)
            return fn(node, mapping)

        monkeypatch.setattr(machine, name, counting)
    prog = parser.parse_program(corpus_text("call_to_call"))
    m = machine.Machine(prog)
    assert calls == [] and m.focus is prog.main.body
    labels = {hb.label: S.Loc(label) for hb, label in zip(prog.main.heap, m.heap)}
    assert m.scope == (machine._LABELS, labels, None)
    for hb, (nu, block, scope) in zip(prog.main.heap, m.heap.values()):
        assert nu == hb.nu and block == hb.value
        assert block.body is hb.value.body and scope is m.scope
    assert m.run(FUEL).kind == "halted"


# A component in an import's source term names the label of the one
# around it, which it is checked under; its closure jumps there after the
# outer component has halted.
NESTED_LABEL = """entry F
(FT[(int) -> int](
  import r1, * as zq, (int) -> int TF{ lam (x: int). FT[int](protect ., zp; mv r1, 7; jmp l[zp]) };
  halt[box code[z, eps]{ra: box code[]{r1: int; z} eps; int :: z} ra, *] r1
, where
  l -> code[zs]{r1: int; zs} ret(int, zs).
    halt[int, zs] r1
))(3)
"""
# The same with a heap in the nested component, entered twice; and,
# unchecked, a nested binding that shadows the outer one.
_NESTED = """entry F
(lam (g: (int) -> int). g(1) + g(2))
(FT[(int) -> int](
  import r1, * as zq, (int) -> int TF{{ lam (x: int). FT[int](
    protect ., zp;
    import r1, zp as zi, int TF{{ x }};
    jmp {entry}[zp]
  , where
    {inner} -> code[zm]{{r1: int; zm}} ret(int, zm).
      add r1, r1, 10;
      jmp {outer}[zm]) }};
  halt[box code[z, eps]{{ra: box code[]{{r1: int; z}} eps; int :: z}} ra, *] r1
, where
  l -> code[zs]{{r1: int; zs}} ret(int, zs).
    mul r1, r1, 3;
    halt[int, zs] r1,
  k -> code[zs]{{r1: int; zs}} ret(int, zs).
    mul r1, r1, 5;
    halt[int, zs] r1
))
"""
NESTED_HEAP = _NESTED.format(entry="m", inner="m", outer="l")
NESTED_SHADOWING = _NESTED.format(entry="l", inner="l", outer="k")


def test_a_nested_component_jumps_to_the_outer_instance():
    prog = parser.parse_program(NESTED_LABEL)
    check_program(prog)
    records = []
    out = machine.run_program(prog, FUEL, records.append)
    assert out.kind == "f-value" and out.value == S.IntVal(7)
    assert records[34]["redex"] == "jmp l#0[zp]"
    for text, value, jumps in (
            (NESTED_HEAP, 69, ["m#4", "l#0", "m#5", "l#0"]),
            (NESTED_SHADOWING, 115, ["l#4", "k#1", "l#5", "k#1"])):
        records = []
        out = machine.run_program(parser.parse_program(text), FUEL, records.append)
        assert out.kind == "f-value" and out.value == S.IntVal(value)
        assert [r["redex"] for r in records if r["jump"] == "jmp"] == [
            f"jmp {label}[zp]" for label in jumps]
    check_program(parser.parse_program(NESTED_HEAP))
    with pytest.raises(CheckError, match="label l is already bound"):
        check_program(parser.parse_program(NESTED_SHADOWING))


def test_register_file_stays_within_the_declared_names():
    prog = parser.parse_program(corpus_text("call_to_call"))
    m = machine.Machine(prog)
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
    m = machine.Machine(S.Program("T", S.Component(halt_int(), ())))
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



def _t(body: str, heap: str = "") -> str:
    """An entry-T program: body, then heap bindings if any."""
    where = f",\n  where\n    {heap}" if heap else ""
    return f"entry T\n(\n  {body}{where}\n)\n"


_HALT = "halt[int, *] r1"


def _ft(ann: str, body: str) -> str:
    """An entry-F program: a boundary at ann around body, halting r1."""
    return f"FT[{ann}](\n  {body};\n  halt[{ann}, *] r1\n)\n"


def _import(ann: str) -> str:
    """An entry-T program that imports 1 at ann."""
    return _t(f"import r1, * as z, {ann} TF{{ 1 }};\n  {_HALT}")


# One unchecked program per stuck rule, and per way a boundary
# translation fails, with its (kind, reason, detail, steps), read by the
# parser and run with no check.
STUCK_PROGRAMS = {
    "t-arithmetic": (_t(f"mv r1, ();\n  add r1, r1, 1;\n  {_HALT}"),
                     ("stuck", "type-confusion", "arithmetic on non-integers", 1)),
    "t-branch": (_t(f"mv r1, ();\n  bnz r1, l;\n  {_HALT}"),
                 ("stuck", "type-confusion", "branch on a non-integer", 1)),
    "t-load-non-location": (_t(f"mv r1, 1;\n  ld r1, r1[0];\n  {_HALT}"),
                            ("stuck", "type-confusion", "load through a non-location", 1)),
    "t-load-unbound": (_t(f"mv r1, nowhere;\n  ld r1, r1[0];\n  {_HALT}"),
                       ("stuck", "unbound-location", "nowhere", 1)),
    "t-load-code": (_t(f"mv r1, l;\n  ld r1, r1[0];\n  {_HALT}",
                       f"l -> code[]{{r1: int; *}} ret(int, *).\n      {_HALT}"),
                    ("stuck", "type-confusion", "load from code", 1)),
    "t-store-immutable": (
        _t(f"mv r1, 1;\n  salloc 1;\n  sst 0, r1;\n  balloc r2, 1;\n  st r2[0], r1;\n  {_HALT}"),
        ("stuck", "type-confusion", "store into an immutable binding", 4)),
    "t-store-index": (
        _t(f"mv r1, 1;\n  salloc 1;\n  sst 0, r1;\n  ralloc r2, 1;\n  st r2[4], r1;\n  {_HALT}"),
        ("stuck", "bad-index", "st 4", 4)),
    "t-alloc-underflow": (_t(f"ralloc r1, 1;\n  {_HALT}"),
                          ("stuck", "stack-underflow", "alloc 1", 0)),
    "t-sld-index": (_t(f"sld r1, 0;\n  {_HALT}"), ("stuck", "bad-index", "sld 0", 0)),
    "t-sst-index": (_t(f"mv r1, 1;\n  sst 0, r1;\n  {_HALT}"),
                    ("stuck", "bad-index", "sst 0", 1)),
    "t-unpack": (_t(f"unpack <a, r1> 3;\n  {_HALT}"),
                 ("stuck", "type-confusion", "unpack of a non-package", 0)),
    "t-unfold": (_t(f"unfold r1, 3;\n  {_HALT}"),
                 ("stuck", "type-confusion", "unfold of a non-fold", 0)),
    "t-jump-word": (_t("jmp 1"), ("stuck", "type-confusion", "jump through non-code word 1", 0)),
    "t-jump-tuple": (_t("jmp lt", "lt -> box <1>"),
                     ("stuck", "type-confusion", "jump into the tuple lt#0", 0)),
    "t-import": (_t(f"import r1, * as z, int TF{{ () }};\n  {_HALT}"),
                 ("stuck", "type-confusion", "expected an integer value", 2)),
    "t-unbound-register": (_t(f"mv r1, r2;\n  {_HALT}"),
                           ("stuck", "unbound-register", "r2", 0)),
    "t-jump-unbound": (_t("jmp nowhere"), ("stuck", "unbound-location", "nowhere", 0)),
    "t-jump-uninstantiated": (
        _t("jmp l", f"l -> code[a]{{r1: int; *}} ret(int, *).\n      {_HALT}"),
        ("stuck", "uninstantiated-binder", "l#0 wants 1 instantiations, got 0", 0)),
    "t-load-index": (_t(f"mv r1, lt;\n  ld r1, r1[3];\n  {_HALT}", "lt -> box <1>"),
                     ("stuck", "bad-index", "ld 3", 1)),
    "t-sfree-underflow": (_t(f"sfree 1;\n  {_HALT}"),
                          ("stuck", "stack-underflow", "sfree 1", 0)),
    "f-if0": ("if0 () 1 2\n", ("stuck", "type-confusion", "if0 on a non-integer", 2)),
    "f-application": ("1(2)\n", ("stuck", "type-confusion", "application of a non-function", 2)),
    "f-arity": ("(lam (x: int). x)(1, 2)\n",
                ("stuck", "type-confusion", "1 parameters, 2 arguments", 6)),
    "f-projection": ("pi.0 1\n", ("stuck", "type-confusion", "projection from a non-tuple", 2)),
    "f-projection-index": ("pi.5 (1, 2)\n", ("stuck", "bad-index", "proj.5", 2)),
    "f-unfold": ("unfold 1\n", ("stuck", "type-confusion", "unfold of a non-fold", 2)),
    "f-boundary": (f"FT[int](\n  mv r1, ();\n  {_HALT}\n)\n",
                   ("stuck", "type-confusion", "expected an integer word", 2)),
    "f-unbound-variable": ("x\n", ("stuck", "unbound-variable", "x", 0)),
    "f-arithmetic": ("() + 1\n", ("stuck", "type-confusion", "arithmetic on non-integers", 4)),
    "f-instantiation": ("(lam (x: int). x)[int]\n",
                        ("stuck", "type-confusion", "not a source expression: Inst", 0)),
    "t-import-unit": (_import("unit"), ("stuck", "type-confusion", "expected the unit value", 2)),
    "t-import-tuple": (_import("<int>"), ("stuck", "type-confusion", "expected a tuple value", 2)),
    "t-import-fold": (_import("mu a. int"),
                      ("stuck", "type-confusion", "expected a folded value", 2)),
    "t-import-exists": (_import("exists a. int"),
                        ("stuck", "type-confusion", "value cannot cross at this type", 2)),
    "f-boundary-unit": (_ft("unit", "mv r1, 1"),
                        ("stuck", "type-confusion", "expected the unit word", 2)),
    "f-boundary-tuple": (_ft("<int>", "mv r1, 1"),
                         ("stuck", "type-confusion", "expected a heap location", 2)),
    "f-boundary-unbound": (_ft("<int>", "mv r1, nowhere"),
                           ("stuck", "unbound-location", "location nowhere is not allocated", 2)),
    "f-boundary-mutable": (_ft("<int>", "mv r1, 1;\n  salloc 1;\n  sst 0, r1;\n  ralloc r1, 1"),
                           ("stuck", "type-confusion", "expected an immutable tuple location", 5)),
    "f-boundary-width": (_ft("<int, int>", "mv r1, 1;\n  salloc 1;\n  sst 0, r1;\n  balloc r1, 1"),
                         ("stuck", "type-confusion", "tuple width mismatch", 5)),
    "f-boundary-fold": (_ft("mu a. int", "mv r1, 1"),
                        ("stuck", "type-confusion", "expected a folded word", 2)),
    "f-boundary-exists": (_ft("exists a. int", "mv r1, 1"),
                          ("stuck", "type-confusion", "word cannot cross at this type", 2)),
}


@pytest.mark.parametrize("name", STUCK_PROGRAMS)
def test_each_stuck_rule_pins_its_reason_detail_and_steps(name):
    text, want = STUCK_PROGRAMS[name]
    out = machine.run_program(parser.parse_program(text), FUEL)
    assert (out.kind, out.reason, out.detail, out.steps) == want


# The typing error that rules out each stuck program: its code, and a
# fragment of its message.
STUCK_GUARDS = {
    "t-arithmetic": ("E-SEQ", "arithmetic operand must be an integer"),
    "t-branch": ("E-SEQ", "branch condition must be an integer"),
    "t-load-non-location": ("E-SEQ", "load from a non-tuple"),
    "t-load-unbound": ("E-VAL", "label nowhere is not bound in the heap"),
    "t-load-code": ("E-SEQ", "load from a non-tuple"),
    "t-store-immutable": ("E-SEQ", "store into an immutable tuple"),
    "t-store-index": ("E-SEQ", "store index 4 outside a 1-tuple"),
    "t-alloc-underflow": ("E-SEQ", "allocation needs 1 visible slots"),
    "t-sld-index": ("E-SEQ", "stack load needs 1 visible slots"),
    "t-sst-index": ("E-SEQ", "stack store needs 1 visible slots"),
    "t-unpack": ("E-SEQ", "unpack of a non-package"),
    "t-unfold": ("E-SEQ", "unfold of a non-recursive value"),
    "t-jump-word": ("E-SEQ", "jump target is not code"),
    "t-jump-tuple": ("E-SEQ", "jump target is not code"),
    "t-import": ("E-SEQ", "import body has type unit, the annotation says int"),
    "f-if0": ("E-EXPR", "condition must be an integer"),
    "f-application": ("E-EXPR", "application of a non-function"),
    "f-arity": ("E-EXPR", "1 parameters, 2 arguments"),
    "f-projection": ("E-EXPR", "projection from a non-tuple"),
    "f-projection-index": ("E-EXPR", "projection index 5 outside a 2-tuple"),
    "f-unfold": ("E-EXPR", "unfold of a non-recursive value"),
    "f-boundary": ("E-SEQ", "halt register holds unit, the annotation says int"),
    "t-unbound-register": ("E-VAL", "register r2 holds no value"),
    "t-jump-unbound": ("E-VAL", "label nowhere is not bound in the heap"),
    "t-jump-uninstantiated": ("E-SEQ", "jump target is not fully instantiated"),
    "t-load-index": ("E-SEQ", "load index 3 outside a 1-tuple"),
    "t-sfree-underflow": ("E-SEQ", "sfree needs 1 visible slots"),
    "f-unbound-variable": ("E-EXPR", "unbound variable x"),
    "f-arithmetic": ("E-EXPR", "arithmetic on a non-integer"),
    "f-instantiation": ("E-EXPR", "not a source-language expression"),
    "t-import-unit": ("E-SEQ", "import body has type int, the annotation says unit"),
    "t-import-tuple": ("E-SEQ", "import body has type int, the annotation says <int>"),
    "t-import-fold": ("E-SEQ", "import body has type int, the annotation says mu a. int"),
    "t-import-exists": ("KindError", "not a source-language type: exists a. int"),
    "f-boundary-unit": ("E-SEQ", "halt register holds int, the annotation says unit"),
    "f-boundary-tuple": ("E-SEQ", "halt register holds int, the annotation says <int>"),
    "f-boundary-unbound": ("E-VAL", "label nowhere is not bound in the heap"),
    "f-boundary-mutable": ("E-SEQ", "halt register holds ref <int>, the annotation says <int>"),
    "f-boundary-width": ("E-SEQ", "halt register holds box <int>, the annotation says <int, int>"),
    "f-boundary-fold": ("E-SEQ", "halt register holds int, the annotation says mu a. int"),
    "f-boundary-exists": ("KindError", "not a source-language type: exists a. int"),
}


@pytest.mark.parametrize("name", STUCK_PROGRAMS)
def test_the_checker_rejects_every_stuck_program(name):
    # Progress: no program that gets stuck is well typed.
    with pytest.raises(CheckError) as err:
        check_program(parser.parse_program(STUCK_PROGRAMS[name][0]))
    code, fragment = STUCK_GUARDS[name]
    assert err.value.code == code and fragment in err.value.message
    assert set(STUCK_GUARDS) == set(STUCK_PROGRAMS)


# The ``_Stuck`` sites that no program text reaches, by function and by
# place among that function's sites, each with the reason.
HAND_BUILT_STUCK = {
    ("_merge_component", 0): "the parser binds a heap label only to code or a tuple",
    ("_t_halt", 0): "target code is entered from source code only through a "
                    "boundary, whose frame is the innermost while it runs",
}


def _raise_sites(module, name: str) -> dict:
    """Each ``name(...)`` call in ``module``, keyed by its function and
    its place among that function's calls in source order, with the
    first and last lines it spans."""
    tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
    sites = {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            calls = sorted((node.lineno, node.end_lineno) for node in ast.walk(fn)
                           if isinstance(node, ast.Call)
                           and isinstance(node.func, ast.Name)
                           and node.func.id == name)
            for i, span in enumerate(calls):
                sites[fn.name, i] = span
    return sites


def test_every_stuck_site_is_reached_from_text_or_listed(monkeypatch):
    # Progress as a case analysis: each way the machine gets stuck, and
    # each way a boundary translation fails, is pinned by a program the
    # checker rejects, or cannot be written.
    stuck, failed = _raise_sites(machine, "_Stuck"), _raise_sites(boundary, "TranslationError")
    assert not {fn for fn, _ in stuck} & {fn for fn, _ in failed}
    sites = {**stuck, **failed}
    raised = []

    def recording(cls):
        class Recording(cls):
            def __init__(self, *args):
                super().__init__(*args)
                frame = sys._getframe(1)
                raised.append((frame.f_code.co_name, frame.f_lineno))
        return Recording

    monkeypatch.setattr(machine, "_Stuck", recording(machine._Stuck))
    monkeypatch.setattr(boundary, "TranslationError", recording(TranslationError))
    reached, passed = {}, set()
    for name, (text, want) in STUCK_PROGRAMS.items():
        raised.clear()
        out = machine.run_program(parser.parse_program(text), FUEL)
        assert (out.kind, out.reason) == want[:2]
        hit = [key for fn, line in raised for key, (first, last) in sites.items()
               if key[0] == fn and first <= line <= last]
        # A program is keyed by the site it raises first: a failed
        # translation's boundary site, not the machine's site that turns
        # every failed translation into a stuck state.
        reached[hit[0]] = name
        passed.update(hit)
    assert len(reached) == len(STUCK_PROGRAMS)
    assert not passed & set(HAND_BUILT_STUCK)
    assert set(sites) == passed | set(HAND_BUILT_STUCK)


# -- rendering helpers ------------------------------------------------------


def test_small_integers_render_exactly():
    assert pretty.int_str(0) == "0"
    assert pretty.int_str(-7) == "-7"
    assert pretty.int_str(10 ** 39) == str(10 ** 39)


def test_integers_from_ten_to_the_fortieth_render_as_digests():
    assert pretty.int_str(10 ** 40 - 1) == str(10 ** 40 - 1)
    assert pretty.int_str(-(10 ** 40) + 1) == str(-(10 ** 40) + 1)
    assert pretty.int_str(10 ** 40) == "<int ~10^40>"
    assert pretty.int_str(-(10 ** 40)) == "<int ~10^40>"


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


# -- closing blocks -----------------------------------------------------------

# A block is closed once per instantiation, when it is first entered, and
# an unpack closes the rest of its sequence once per witness.  Traces and
# outcomes must read exactly as if every block had been rewritten on every
# entry.


# lA is instantiated at unit, unpacks int as c, and jumps with both.
UNPACK_TO_JUMP = """entry T
(
  mv r1, pack <int, 5> as exists a. a;
  mv r4, ();
  jmp lA[unit]
, where
  lA -> code[b]{r1: exists a. a, r4: b; *} ret(int, *).
    unpack <c, r2> r1;
    jmp lB[c, b],
  lB -> code[d, e]{r2: d, r4: e; *} ret(int, *).
    mv r1, 1;
    halt[int, *] r1
)
"""


def test_unpacked_type_variable_reaches_the_next_jump():
    prog = parser.parse_program(UNPACK_TO_JUMP)
    check_program(prog)
    records = []
    out = machine.run_program(prog, FUEL, records.append)
    assert out.kind == "halted" and out.value == S.IntVal(1) and out.steps == 7
    assert [r["redex"] for r in records[2:5]] == [
        "jmp lA#0[unit]", "unpack <c, r2> r1", "jmp lB#1[int, unit]"]
    assert records[3]["registers_delta"] == {"r2": "5"}


# lA is entered at a := int; its unpack rebinds a to the witness unit,
# so the rest of the block reads a as unit.
UNPACK_SHADOWING = """entry T
(
  mv r1, pack <unit, ()> as exists c. c;
  jmp lA[int]
, where
  lA -> code[a]{r1: exists c. c; *} ret(int, *).
    unpack <a, r2> r1;
    mv r3, lB[a];
    jmp lB[a],
  lB -> code[b]{r2: b; *} ret(int, *).
    mv r1, 1;
    halt[int, *] r1
)
"""


def test_an_unpack_that_rebinds_a_block_binder_shadows_it():
    prog = parser.parse_program(UNPACK_SHADOWING)
    check_program(prog)
    records = []
    out = machine.run_program(prog, FUEL, records.append)
    assert (out.kind, out.value) == ("halted", S.IntVal(1))
    assert [r["redex"] for r in records[2:5]] == [
        "unpack <a, r2> r1", "mv r3, lB#1[unit]", "jmp lB#1[unit]"]


# -- folds and heap tuples ----------------------------------------------------

# Well-typed T programs that fold and unfold words, allocate a box with
# balloc, and read and write tuples bound in the component's heap: ln
# points at lp, which the checker types first; lc is a ref cell.  Each is
# (text, halting value, steps).
HEAP_TUPLES = ("""entry T
(
  mv r1, fold mu a. box <int, int> lp;
  unfold r2, r1;
  ld r3, r2[0];
  ld r4, r2[1];
  add r3, r3, r4;
  mv r5, lc;
  ld r4, r5[0];
  add r3, r3, r4;
  st r5[0], r3;
  salloc 2;
  sst 0, r3;
  sst 1, r1;
  balloc r6, 2;
  ld r7, r6[1];
  unfold r7, r7;
  ld r1, r7[0];
  mv r2, ln;
  ld r2, r2[1];
  ld r2, r2[1];
  mul r1, r1, r2;
  ld r2, r5[0];
  add r1, r1, r2;
  halt[int, *] r1
, where
  ln -> box <5, lp>,
  lp -> box <3, 4>,
  lc -> ref <10>
)
""", 29, 23)
# A block that receives itself, folded at a recursive type, and loops by
# unfolding it: r3 sums 3 + 2 + 1.
FOLDED_LOOP = ("""entry T
(
  mv r1, fold mu a. box code[]{r1: a, r2: int, r3: int; *} ret(int, *) lloop;
  mv r2, 3;
  mv r3, 0;
  jmp lloop
, where
  lloop -> code[]{r1: mu a. box code[]{r1: a, r2: int, r3: int; *} ret(int, *), r2: int, r3: int; *} ret(int, *).
    add r3, r3, r2;
    sub r2, r2, 1;
    unfold r4, r1;
    bnz r2, r4;
    mv r1, r3;
    halt[int, *] r1
)
""", 6, 18)
FOLDS_AND_TUPLES = (HEAP_TUPLES, FOLDED_LOOP)


@pytest.mark.parametrize("text, value, steps", FOLDS_AND_TUPLES,
                         ids=("heap-tuples", "folded-loop"))
def test_folds_and_heap_tuples_check_run_and_print(text, value, steps):
    prog = parser.parse_program(text)
    typed = check_program(prog)
    assert typed == (S.TyInt(), S.SNil())
    out = machine.run_program(prog, FUEL)
    assert (out.kind, out.value, out.steps) == ("halted", S.IntVal(value), steps)
    once = pretty.program(prog)
    again = parser.parse_program(once)
    assert pretty.program(again) == once
    assert check_program(again) == typed


def test_import_is_closed_under_the_block_binders():
    # The import's annotation mentions the block binder a, which is int
    # at run time, so the exported wrapper is typed at (int) -> int; and
    # the code after the import runs under a again.
    prog = parser.parse_program("""entry T
(
  mv r1, 7;
  jmp lA[int]
, where
  lA -> code[a]{r1: int; *} ret(int, *).
    import r2, * as zi, (a) -> a TF{ lam (x: a). x };
    jmp lB[a],
  lB -> code[b]{r1: int; *} ret(int, *).
    halt[int, *] r1
)
""")
    check_program(prog)
    m = machine.Machine(prog)
    records = []
    out = m.run(FUEL, records.append)
    assert out.kind == "halted" and out.value == S.IntVal(7) and out.steps == 7
    assert [r["redex"] for r in records[2:]] == [
        "import r2", "value", "export", "jmp lB#1[int]", "halt r1"]
    _, block, _ = m.heap[m.regs["r2"].name]
    want = translate_type(S.Arrow((S.TyInt(),), S.TyInt())).psi
    assert (block.chi, block.sigma) == (want.chi, want.sigma)
    assert (S.KIND_TYPE, "a") not in S.free_names(block)


def test_instantiated_loop_jump_is_traced_with_its_closed_types():
    prog = parser.parse_program(corpus_text("factorial_t"))
    records = []
    out = machine.run_program(S.Program("F", S.App(prog.main, (S.IntVal(3),))),
                              FUEL, records.append)
    assert out.value == S.IntVal(6) and out.steps == 33
    assert records[18]["step"] == 19
    assert records[18]["redex"] == "bnz r3, lloop#1[z, ret(int, z)]"


def test_a_binder_that_would_capture_is_renamed_as_in_a_rewritten_block():
    # lA runs under zz := z, where z is free (bound by the outer
    # protect), so its own protect of z would capture and is shown
    # renamed, as rewriting the block renamed it; the next pass runs
    # under zz := z#0, where z captures nothing.
    prog = parser.parse_program("""entry T
(
  protect ., z;
  jmp lA[z]
, where
  lA -> code[zz]{; zz} ret(int, *).
    protect ., z;
    jmp lA[z]
)
""")
    check_program(prog)
    records = []
    out = machine.run_program(prog, 7, records.append)
    assert out.kind == "running"
    assert [r["redex"] for r in records] == [
        "protect ., z", "jmp lA#0[z]", "protect ., z#0", "jmp lA#0[z#0]",
        "protect ., z", "jmp lA#0[z]", "protect ., z#0"]


# sha256 of every trace record (sorted-key JSON lines) and the outcome of
# each corpus program, applied to each of GOLDEN_INPUTS when it is a
# function, with GOLDEN_FUEL; recorded from the machine that rewrote each
# block on entry.
GOLDEN_INPUTS = (-1, 0, 1, 3, 5)
GOLDEN_FUEL = 3000
APPLIED = ("basic_blocks_f1", "basic_blocks_f2", "factorial_f", "factorial_t",
           "identity", "succ")
GOLDEN = {
    "call_to_call": "23080603380f0186362a5b8fd81c15392c57311e34eaa922537a8a9c41c9833a",
    "jit": "83a8e4b783a7ee5d88ea138ce22ad5302297747c804ffca73a48bb2a9b663a4a",
    "basic_blocks_f1": "1078d6ab614c9f83ff25a21e1923aef92fd07af263470955726db3ca683c2fd0",
    "basic_blocks_f2": "dd08a2871568dcb3d699fe8429762d0bdcbf415998e9fa3c4b60cd347cdf084e",
    "factorial_f": "1fd1897ba10622b0bac9280bc74364f2c957af8180f60f198afed4e35d616e34",
    "factorial_t": "cb15875227366c6b65780449d08e691478f3f4f26ef1105f8dc6fbc20aaf0e5b",
    "withref": "fc7f09a73207d56ef952f03b8ad1e7d3b79db598129e51518c14181cc11a3785",
    "import_one_plus_one": "002a9bed7c3aa21fce81600edd298ba29e32eee65758eddef6cda5165cb8cf12",
    "push7_stack_lambda": "3cd9b9ca224adf0110481d761fc0962619758d70895f7965197aa9cb1912985d",
    "identity": "8d370aa75b55a42b825f2851037c50d576b55b6b8bfa81867128cf9f0fe43a99",
    "succ": "30bd4d941204dc2e0abccdc56c222e2ff5f040d6c7be78a75d88658fbe1504d9",
}


@pytest.mark.parametrize("name", ALL_FTAL)
def test_traces_and_outcomes_match_the_golden_digest(name):
    h = hashlib.sha256()
    prog = parser.parse_program(corpus_text(name))
    progs = ([S.Program("F", S.App(prog.main, (S.IntVal(n),)))
              for n in GOLDEN_INPUTS] if name in APPLIED else [prog])
    for p in progs:
        out = machine.run_program(p, GOLDEN_FUEL, lambda r: h.update(
            (json.dumps(r, sort_keys=True) + "\n").encode()))
        h.update((json.dumps({
            "kind": out.kind, "steps": out.steps,
            "value": None if out.value is None else pretty.value_str(out.value),
            "stack": [pretty.word_str(w) for w in out.stack],
            "reason": out.reason, "detail": out.detail},
            sort_keys=True) + "\n").encode())
    assert h.hexdigest() == GOLDEN[name]


# -- trace lines -------------------------------------------------------------

def json_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True) + "\n"


@pytest.mark.parametrize("entry", registry.PROGRAMS, ids=lambda e: e.name)
def test_trace_lines_are_the_sorted_key_json_of_every_record(entry):
    prog = parser.parse_program(corpus_text(entry.name))
    progs = ([S.Program("F", S.App(prog.main, (S.IntVal(n),)))
              for n in GOLDEN_INPUTS] if entry.run_kind == "applied" else [prog])
    records = []
    for p in progs:
        machine.run_program(p, GOLDEN_FUEL, records.append)
    assert records
    for r in records:
        assert machine.trace_line(r) == json_line(r)
        # Machine.step renders an empty or a one-register delta directly.
        assert len(r["registers_delta"]) <= 1


# Text that JSON must escape: quotes, backslashes, control characters,
# non-ASCII text (inside and outside the BMP) and lone surrogates.
TRACE_TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\x00\n\t\x1f\x7f\u00e9\u2028\U0001f600\ud800\udfff'),
    st.characters(exclude_categories=())))


@st.composite
def trace_records(draw) -> dict:
    regs = sorted(draw(st.sets(TRACE_TEXT, max_size=3)))
    return {
        "step": draw(st.integers(min_value=1)),
        "lang": draw(st.sampled_from("TF")),
        "redex": draw(TRACE_TEXT),
        "jump": draw(st.none() | TRACE_TEXT),
        "registers_delta": {r: draw(TRACE_TEXT) for r in regs},
        "stack_depth": draw(st.integers(min_value=0)),
    }


# Escape-heavy records with 0, 1 and 2 registers: trace_line writes the
# first two without a join.
ESCAPING = {"step": 12, "lang": "T", "redex": 'mv r1, "x"\\\x1f',
            "jump": "call\u00e9", "stack_depth": 3}


@settings(max_examples=500)
@given(trace_records())
@example({**ESCAPING, "jump": None, "registers_delta": {}})
@example({**ESCAPING, "registers_delta": {"r1": 'l"1\\n#0\n\u00e9'}})
@example({**ESCAPING, "registers_delta": {"r1\t": "\x00\ud800",
                                          "ra": "\U0001f600  /"}})
def test_trace_line_escapes_as_json_dumps_does(record):
    assert machine.trace_line(record) == json_line(record)


@pytest.mark.parametrize("name, arg", [
    ("factorial_t", 5), ("factorial_f", 5), ("import_one_plus_one", None)])
def test_direct_steps_return_the_records_a_traced_run_gives(name, arg):
    prog = parser.parse_program(corpus_text(name))
    if arg is not None:
        prog = S.Program("F", S.App(prog.main, (S.IntVal(arg),)))
    m = machine.Machine(prog)
    stepped = list(iter(m.step, None))
    traced = []
    out = machine.run_program(prog, GOLDEN_FUEL, traced.append)
    assert len(stepped) == len(traced) == out.steps
    assert stepped == traced
    assert ([machine.trace_line(r) for r in stepped]
            == [machine.trace_line(r) for r in traced])


class _NoRendering:
    def __getattr__(self, name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"pretty.{name} called without a trace sink")
        return refuse


def test_an_untraced_run_renders_nothing(monkeypatch):
    monkeypatch.setattr(machine, "pretty", _NoRendering())
    out = run_applied("factorial_t", 5)
    assert out.kind == "f-value" and out.value == S.IntVal(120)
    assert out.steps == 39


def test_untraced_steps_keep_the_counting_fields(monkeypatch):
    # Wrappers of Machine.step (such as a profiler) count steps, jumps
    # and stack depth from the record in untraced runs too.
    seen = []
    step = machine.Machine.step

    def spy(m):
        record = step(m)
        if record is not None:
            seen.append(record)
        return record
    monkeypatch.setattr(machine.Machine, "step", spy)
    out = run_named("call_to_call")
    assert len(seen) == out.steps == 13
    for r in seen:
        assert {"step", "lang", "jump", "stack_depth"} <= set(r)
    assert [r["jump"] for r in seen].count("call") == 2


def test_an_untraced_run_records_no_registers_delta():
    # Only a rendering step reads the registers it set, so an untraced
    # run keeps none of them.
    prog = parser.parse_program(corpus_text("factorial_t"))
    m = machine.Machine(S.Program("F", S.App(prog.main, (S.IntVal(-1),))))
    assert m.run(3000).kind == "running"
    assert m._delta == {}


def test_a_direct_step_returns_the_full_record():
    m = machine.Machine(parser.parse_program(corpus_text("call_to_call")))
    r = m.step()
    assert set(r) == {"step", "lang", "redex", "jump",
                      "registers_delta", "stack_depth"}
    assert r["redex"] == "mv ra, l1ret#1"
    assert r["registers_delta"] == {"ra": "l1ret#1"}


# -- closures and environments ---------------------------------------------

# Source code runs under a term environment instead of substituting on
# every beta and let.  Outcomes, step counts and step labels below were
# recorded from the machine that substituted.


def run_text(text: str, fuel: int = FUEL):
    records = []
    out = machine.run_program(parser.parse_program(text), fuel, records.append)
    return out, [r["redex"] for r in records]


def test_an_inner_binder_shadows_the_outer_one():
    out, _ = run_text("entry F\n(lam (x: int). (lam (x: int). x)(2) + x)(1)\n")
    assert out.kind == "f-value" and out.value == S.IntVal(3)
    assert out.steps == 16



# Each frame resumes under the scope it was pushed with, not under the
# one the inner application left behind.
@pytest.mark.parametrize("body,value,steps", (
    ("(lam (x: int). x)(2) + (x * 1)", "3", 20),
    ("if0 ((lam (x: int). x - 2)(2)) x 7", "1", 19),
    ("(lam (a: int, b: int). a - b)((lam (x: int). x)(5), x)", "4", 23),
    ("((lam (x: int). x)(2), x)", "(2, 1)", 16),
    ("let y = (lam (x: int). x)(2) in (x, y)", "(1, 2)", 15),
    ("((lam (x: int). x)(2); x)", "1", 15),
))
def test_a_frame_resumes_under_its_own_scope(body, value, steps):
    out, _ = run_text(f"entry F\n(lam (x: int). {body})(1)\n")
    assert out.kind == "f-value" and pretty.tm(out.value) == value
    assert out.steps == steps


def test_a_binop_frame_keeps_only_the_left_value_while_the_right_runs():
    # A non-tail recursion x * f(x - 1) keeps one binop frame per level;
    # once it resumes its right operand, the frame holds neither that
    # operand nor the scope it runs under.
    m = machine.Machine(parser.parse_program(
        "entry F\n(lam (x: int). x * (lam (y: int). y)(x - 1))(3)\n"))
    binops = []
    while not any(fr.left is not None for fr in binops):
        assert m.step() is not None
        binops = [fr for fr in m.frames if type(fr) is machine.FrBinop]
    fr, = binops
    assert fr.left == S.IntVal(3) and fr.right is None and fr.scope is None
    out = m.run(FUEL)
    assert out.kind == "f-value" and out.value == S.IntVal(6)


def test_a_returned_closure_reads_back_as_the_substituted_lambda():
    out, _ = run_text("entry F\n(lam (x: int). lam (y: int). x + y)(3)\n")
    assert out.kind == "f-value" and out.steps == 7
    assert pretty.tm(out.value) == "lam (y: int). (3 + y)"
    assert S.free_names(out.value) == frozenset()


def test_a_tuple_of_bound_variables_is_one_value_step():
    out, redexes = run_text("entry F\n(lam (x: int, y: int). (x, y))(1, 2)\n")
    assert out.kind == "f-value" and out.steps == 9
    assert out.value == S.TupleVal((S.IntVal(1), S.IntVal(2)))
    assert redexes == ["app", "value", "app-arg", "value", "app-arg",
                       "value", "beta", "value", "result"]


# Source forms no bundled program holds: a fold of a non-value, which
# evaluates under a fold frame and reads back through it, and a let with
# an annotation.
F_FORMS = (
    ("entry F\nfold mu a. int (1 + 2)\n", "mu a. int", "fold mu a. int 3", 8),
    ("entry F\nlet x : int = 1 in x + 1\n", "int", "2", 9),
)


@pytest.mark.parametrize("text, tau, value, steps", F_FORMS, ids=("fold", "annotated-let"))
def test_a_fold_and_an_annotated_let_check_and_run(text, tau, value, steps):
    assert pretty.ty(check_program(parser.parse_program(text))[0]) == tau
    out, _ = run_text(text)
    assert out.kind == "f-value" and pretty.tm(out.value) == value
    assert out.steps == steps


def test_a_let_annotation_must_match_the_bound_value():
    with pytest.raises(CheckError) as exc:
        check_program(parser.parse_program("entry F\nlet x : unit = 1 in x\n"))
    assert (exc.value.code, exc.value.message) == (
        "E-EXPR", "bound value has type int, the annotation says unit")


def test_an_unbound_variable_inside_a_tuple_is_stuck():
    out, redexes = run_text("entry F\n(lam (x: int). (x, z))(1)\n")
    assert out.kind == "stuck" and out.steps == 8
    assert (out.reason, out.detail) == (machine.STUCK_UNBOUND_VARIABLE, "z")
    assert redexes[-3:] == ["tuple", "value", "tuple-item"]


def test_a_boundary_imports_the_innermost_binding():
    out, redexes = run_text("""entry F
let x = 1 in
(lam (x: int).
  FT[int](
    protect ., z;
    import r1, z as zi, int TF{ x };
    halt[int, z] r1
  ))(2)
""")
    assert out.kind == "f-value" and out.value == S.IntVal(2)
    assert out.steps == 15
    assert redexes[7:12] == ["beta", "boundary", "protect ., z", "import r1",
                             "value"]


def test_a_let_bound_closure_is_exported_and_called_back():
    prog = parser.parse_program("""entry F
let f = lam (y: int). y + 10 in
FT[int](
  import r1, * as zi, (int) -> int TF{ f };
  mv r2, 5;
  salloc 1;
  sst 0, r2;
  mv ra, lret;
  call r1 {*, ret(int, *)}
, where
  lret -> code[]{r1: int; *} ret(int, *).
    halt[int, *] r1
)
""")
    check_program(prog)
    m = machine.Machine(prog)
    out = m.run(FUEL)
    assert out.kind == "f-value" and out.value == S.IntVal(15)
    assert out.steps == 36
    # The exported wrapper's scope binds its hole to the closure.
    [scope] = [scope for _, b, scope in m.heap.values()
               if isinstance(b, S.CodeBlock) and scope is not None
               and scope[0] == boundary._HOLE]
    name, clo, parent = scope
    assert (name, parent) == (boundary._HOLE, None)
    assert type(clo) is machine._Clo
    assert pretty.tm(clo.lam) == "lam (y: int). (y + 10)"


def test_two_wrappers_sharing_a_body_each_apply_their_own_closure():
    # Both exports at (int) -> int share one body and are entered under
    # one environment, so only each wrapper's scope tells them apart.
    prog = parser.parse_program("""entry F
let mk = lam (c: int). lam (y: int). y + c in
let rt = lam (c: int).
  FT[(int) -> int](
    protect ., z;
    import r1, z as zi, (int) -> int TF{ mk(c) };
    halt[box code[z, eps]{ra: box code[]{r1: int; z} eps; int :: z} ra, z] r1
  ) in
let f = rt(10) in
let g = rt(20) in
(g(1), f(1))
""")
    check_program(prog)
    m = machine.Machine(prog)
    out = m.run(FUEL)
    assert out.kind == "f-value"
    assert out.value == S.TupleVal((S.IntVal(21), S.IntVal(11)))
    wrappers = [b for _, b, scope in m.heap.values()
                if isinstance(b, S.CodeBlock) and scope is not None]
    assert len(wrappers) == 2 and wrappers[0].body is wrappers[1].body


# -- rule tables and the jump cache ------------------------------------------

# Words only target code has; every other term is a source expression.
T_WORDS = {S.Reg, S.Loc, S.Pack, S.Inst}


def node_classes(base):
    return {c for c in vars(S).values()
            if isinstance(c, type) and issubclass(c, base) and c is not base}


def test_every_node_and_frame_class_has_one_rule():
    frames = {c for name, c in vars(machine).items()
              if name.startswith("Fr") and isinstance(c, type)}
    assert set(machine.T_RULES) == (
        node_classes(S.Instr) | node_classes(S.ISeq) - {S.Seq})
    assert set(machine.SOURCE_RULES) == (
        node_classes(S.Tm) - T_WORDS | {machine._Clo})
    # A value never returns to a boundary's frame: see the next test.
    assert frames and set(machine.RETURN_RULES) == frames - {machine.FrBoundary}
    for table in (machine.T_RULES, machine.SOURCE_RULES, machine.RETURN_RULES):
        assert all(callable(rule) for rule in table.values())


def test_a_value_returned_to_a_boundary_frame_is_stuck():
    # Target code leaves a boundary only by halting, which pops its frame,
    # so no text returns a value to one; the table's missing rule does.
    m = machine.Machine(S.Program("F", S.IntVal(1)))
    m.frames.append(machine.FrBoundary(S.TyInt()))
    out = m.run(FUEL)
    assert (out.kind, out.reason) == ("stuck", machine.STUCK_TYPE_CONFUSION)
    assert (out.detail, out.steps) == ("value under frame FrBoundary", 1)


def test_a_node_with_no_rule_is_stuck():
    out = machine.run_program(S.Program("F", S.Loc("l")), FUEL)
    assert (out.kind, out.reason) == ("stuck", machine.STUCK_TYPE_CONFUSION)
    assert out.detail == "not a source expression: Loc"


class CountingHeap(dict):
    """A heap that counts the lookups of a label."""

    gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)


LOOP = """entry T
(
  mv r1, 1000;
  mv r2, ();
  jmp lloop[unit]
, where
  lloop -> code[a]{r1: int, r2: a; *} ret(int, *).
    sub r1, r1, 1;
    bnz r1, lloop[a];
    halt[int, *] r1
)
"""


def test_a_loop_resolves_its_jump_word_once():
    prog = parser.parse_program(LOOP)
    check_program(prog)
    m = machine.Machine(prog)
    m.heap = CountingHeap(m.heap)
    out = m.run(FUEL)
    # Recorded before jump words were cached.
    assert out.kind == "halted" and out.value == S.IntVal(0)
    assert out.steps == 2004
    # lloop[unit] from the entry, and lloop[a] closed under a := unit.
    assert m.heap.gets == 2


# R-hat keeps an operand's type.  The registers hold a closed word over a
# polymorphic code label, and an operand is a register, the label or an
# int under at most two of the shells ``words`` draws, every one of them;
# a ``mv`` must read each operand that types to a word of its type.
POLY_BLOCK = """entry T
(
  halt[int, *] r1
, where
  l -> code[a, z]{r1: a; z} ret(a, z).
    halt[a, z] r1
)
"""


def shallow_words(leaves) -> list:
    """``leaves`` under no, one and two shells, in every way."""
    once = [shell for w in leaves for shell in word_shells(w)]
    return [*leaves, *once, *(shell for w in once for shell in word_shells(w))]


def test_reading_an_operand_keeps_its_type():
    comp = parser.parse_program(POLY_BLOCK).main
    [hb] = comp.heap
    block = hb.value
    psi = {"l": (hb.nu, S.CodeT(block.binders, block.chi, block.sigma, block.q))}
    held = []
    for w in shallow_words((S.Loc("l"), S.IntVal(3), S.UnitVal())):
        try:
            held.append((w, check_small_value(psi, (), {}, w)))
        except CheckError:
            pass
    operands = shallow_words((S.Reg("r1"), S.Reg("ra"), S.Loc("l"), S.IntVal(2)))
    shelled = set()  # the outer shells of typed operands that read a register
    for w, t in held:
        for u in operands:
            try:
                want = check_small_value(psi, (), {"r1": t, "ra": t}, u)
            except CheckError:
                continue
            halt = S.Halt(S.TyInt(), S.SNil(), "r9")
            m = machine.Machine(S.Program("T", S.Component(S.Seq(S.Mv("r9", u), halt),
                                                           comp.heap)))
            [label] = m.heap
            m.regs["r1"] = m.regs["ra"] = S.rename_locations(w, {"l": label})
            m.step()
            got = check_small_value({label: psi["l"]}, (), {}, m.regs["r9"])
            assert S.alpha_equal(got, want), (u, w)
            core = u
            while type(core) in (S.Inst, S.Pack, S.Fold):
                core = core.e if type(core) is S.Fold else core.val
            if type(core) is S.Reg and core is not u:
                shelled.add(type(u))
    assert shelled == {S.Inst, S.Pack, S.Fold}


@pytest.mark.parametrize("name, inputs", [
    ("factorial_t", range(2, 9)),
    ("basic_blocks_f2", GOLDEN_INPUTS),
])
def test_closing_does_not_scale_with_loop_length(monkeypatch, name, inputs):
    # A block is closed when it is first entered under an instantiation,
    # so a longer loop substitutes no more than a shorter one.
    calls = []
    substitute = machine.substitute

    def counting(node, mapping):
        calls.append(node)
        return substitute(node, mapping)

    monkeypatch.setattr(machine, "substitute", counting)
    prog = parser.parse_program(corpus_text(name))
    counts = []
    for n in inputs:
        calls.clear()
        out = machine.run_program(S.Program("F", S.App(prog.main, (S.IntVal(n),))),
                                  FUEL)
        assert out.kind == "f-value"
        counts.append(len(calls))
    assert len(set(counts)) == 1


def test_a_register_word_naming_an_unbound_label_is_stuck():
    body = S.Seq(S.Mv("r1", S.Loc("nowhere")), S.Jmp(S.Reg("r1")))
    out = run_target(body)
    assert (out.kind, out.reason, out.detail) == (
        "stuck", machine.STUCK_UNBOUND_LOCATION, "nowhere")
    assert out.steps == 1


def test_a_register_word_with_too_many_instantiations_is_stuck():
    heap = (S.HeapBinding(
        "lB", "box",
        S.CodeBlock(("z",), S.make_chi({}), S.SVar("z"),
                    S.MHalt(S.TyInt(), S.SVar("z")),
                    S.Halt(S.TyInt(), S.SVar("z"), "r1"))),)
    word = S.Inst(S.Inst(S.Loc("lB"), S.SNil()), S.SNil())
    body = S.Seq(S.Mv("r1", word), S.Jmp(S.Reg("r1")))
    out = run_target(body, heap)
    assert (out.kind, out.reason) == ("stuck", machine.STUCK_UNINSTANTIATED)
    assert out.detail == "lB#0 wants 1 instantiations, got 2"


def test_a_call_and_a_jump_enter_one_block_under_their_own_omegas():
    # l2 is entered by a call, under (ra's type :: *, 0), and later by a
    # jump, under (*, ret(int, *)); its jump to l3 shows each closing.
    prog = parser.parse_program("""entry T
(
  mv ra, ldone;
  call l1 {*, ret(int, *)}
, where
  l1 -> code[z, eps]{ra: box code[]{r1: int; z} eps; z} ra.
    mv r1, 1;
    salloc 1;
    sst 0, ra;
    mv ra, lmid[z, eps];
    call l2 {box code[]{r1: int; z} eps :: z, 0},
  lmid -> code[z, eps]{r1: int; box code[]{r1: int; z} eps :: z} 0.
    sld ra, 0;
    sfree 1;
    jmp l2[z, eps],
  l2 -> code[z, eps]{r1: int, ra: box code[]{r1: int; z} eps; z} ra.
    jmp l3[z, eps],
  l3 -> code[z, eps]{r1: int, ra: box code[]{r1: int; z} eps; z} ra.
    ret ra {r1},
  ldone -> code[]{r1: int; *} ret(int, *).
    halt[int, *] r1
)
""")
    check_program(prog)
    records = []
    out = machine.run_program(prog, FUEL, records.append)
    assert out.kind == "halted" and out.value == S.IntVal(1)
    assert out.steps == 15
    jumps = [r["redex"] for r in records if r["jump"] in ("jmp", "call")]
    assert jumps == [
        "call l1#0", "call l2#2",
        "jmp l3#3[box code[]{r1: int; *} ret(int, *) :: *, 0]",
        "jmp l2#2[*, ret(int, *)]", "jmp l3#3[*, ret(int, *)]"]


def test_stack_slots_are_indexed_from_the_top():
    prog = parser.parse_program("""entry T
(
  mv r1, 1;
  mv r2, 2;
  mv r3, 3;
  salloc 3;
  sst 0, r1;
  sst 1, r2;
  sst 2, r3;
  sld r4, 0;
  sld r5, 1;
  sld r6, 2;
  halt[int, int :: int :: int :: *] r4
)
""")
    check_program(prog)
    m = machine.Machine(prog)
    out = m.run(FUEL)
    assert out.kind == "halted" and out.steps == 11
    assert [m.regs[r] for r in ("r4", "r5", "r6")] == [
        S.IntVal(1), S.IntVal(2), S.IntVal(3)]
    assert out.stack == (S.IntVal(1), S.IntVal(2), S.IntVal(3))


def test_a_tuple_takes_the_top_slots_in_order():
    prog = parser.parse_program("""entry T
(
  mv r1, 1;
  mv r2, 2;
  salloc 3;
  sst 0, r1;
  sst 1, r2;
  balloc r3, 2;
  ld r4, r3[0];
  ld r5, r3[1];
  halt[int, unit :: *] r4
)
""")
    check_program(prog)
    m = machine.Machine(prog)
    out = m.run(FUEL)
    assert out.kind == "halted" and out.value == S.IntVal(1)
    assert m.regs["r5"] == S.IntVal(2)
    assert out.stack == (S.UnitVal(),)


# -- boundary traffic ---------------------------------------------------------

# F sums tb(lam (h: (int) -> int). h(n + 3)) for n = 10..1.  Each round
# calls the imported T block tb, which calls back the exported lambda
# with the exported T function lh, which doubles its argument; so each
# round crosses into T and back, and exports and imports a function.
PINGPONG = """entry F
(lam (tb: (((int) -> int) -> int) -> int).
  let loop = fold mu a. (a) -> ((int) -> int)
    (lam (self: mu a. (a) -> ((int) -> int)).
      lam (n: int).
        if0 n 0 ((tb(lam (h: (int) -> int). h((n + 3))))
                 + ((unfold self)(self)((n - 1)))))
  in (unfold loop)(loop)(10))
(FT[(((int) -> int) -> int) -> int](
  mv r1, ltb;
  halt[box code[z, eps]{ra: box code[]{r1: int; z} eps; box code[z, eps]{ra: box code[]{r1: int; z} eps; box code[z, eps]{ra: box code[]{r1: int; z} eps; int :: z} ra :: z} ra :: z} ra, *] r1
, where
  ltb -> code[z, eps]{ra: box code[]{r1: int; z} eps; box code[z, eps]{ra: box code[]{r1: int; z} eps; box code[z, eps]{ra: box code[]{r1: int; z} eps; int :: z} ra :: z} ra :: z} ra.
    sld r1, 0;
    salloc 1;
    mv r2, lh;
    sst 0, r2;
    sst 1, ra;
    mv ra, lback[z, eps];
    call r1 {box code[]{r1: int; z} eps :: z, 0},
  lback -> code[z, eps]{r1: int; box code[]{r1: int; z} eps :: z} 0.
    sld ra, 0;
    sfree 1;
    ret ra {r1},
  lh -> code[z, eps]{ra: box code[]{r1: int; z} eps; int :: z} ra.
    sld r1, 0;
    sfree 1;
    mul r1, r1, 2;
    ret ra {r1}
))
"""


def test_boundary_traffic_matches_the_golden_digest():
    # Recorded from the machine that closed each component over the
    # term environment before entering it.
    prog = parser.parse_program(PINGPONG)
    check_program(prog)
    m = machine.Machine(prog)
    h = hashlib.sha256()
    out = m.run(FUEL, lambda r: h.update(
        (json.dumps(r, sort_keys=True) + "\n").encode()))
    assert out.kind == "f-value"
    assert out.value == S.IntVal(2 * sum(n + 3 for n in range(1, 11)))
    assert (out.steps, len(m.heap)) == (897, 24)
    assert h.hexdigest() == (
        "d34fefa2f57963c8125392bf2ce55742e3a6ce2a2b2d7c3f2330db6a0293d6e8")


def test_a_component_body_runs_each_import_under_the_boundary_scope():
    # The first import's beta rebinds x; the second still reads x = 7.
    out, redexes = run_text("""entry F
let x = 7 in
FT[int](
  import r1, * as zi, int TF{ (lam (x: int). x)(5) };
  import r2, * as zi, int TF{ x };
  add r1, r1, r2;
  halt[int, *] r2
)
""")
    assert out.kind == "f-value" and out.value == S.IntVal(7)
    assert out.steps == 18
    assert redexes[4:15] == [
        "import r1", "app", "value", "app-arg", "value", "beta", "value",
        "export", "import r2", "value", "export"]


def test_a_boundary_in_a_lambda_imports_each_call_argument():
    out, _ = run_text("""entry F
let f = lam (y: int). FT[int](
  protect ., z;
  import r1, z as zi, int TF{ y };
  halt[int, z] r1
) in
(f(3), f(4))
""")
    assert out.kind == "f-value"
    assert out.value == S.TupleVal((S.IntVal(3), S.IntVal(4)))
    assert out.steps == 29


@pytest.mark.parametrize("body", ("7", "x"))
def test_entering_a_component_with_no_heap_keeps_its_body(body):
    # Even a body that names x is entered as it is, not closed over x.
    comp = parser.parse_component(f"""(
  import r1, * as zi, int TF{{ {body} }};
  halt[int, *] r1
)""")
    assert comp.heap == ()
    prog = S.Program("F", S.Let("x", None, S.IntVal(7),
                                S.Boundary(S.TyInt(), comp)))
    m = machine.Machine(prog)
    while not isinstance(m.focus, S.Boundary) or m.returning:
        m.step()
    m.step()
    assert m.focus is comp.body
    out = m.run(FUEL)
    assert out.value == S.IntVal(7) and out.steps == 9


ANS_T = "box code[]{r1: int; z} eps"
INT_FN_T = f"box code[z, eps]{{ra: {ANS_T}; int :: z}} ra"
ARG_T = f"box code[z, eps]{{ra: {ANS_T}; {INT_FN_T} :: z}} ra"
JIT_T = f"box code[z, eps]{{ra: {ANS_T}; {ARG_T} :: z}} ra"


def ping_pong(k: int) -> str:
    """F code that sums jit(lam h. h(n)) for n = k..1; the imported T
    block jit passes an exported T function (doubling) to its argument,
    so each call crosses the boundary four times."""
    return f"""entry F
(lam (jit: (((int) -> int) -> int) -> int).
  let g = fold mu a. (a) -> ((int) -> int)
            (lam (f: mu a. (a) -> ((int) -> int)).
               lam (n: int).
                 if0 n 0 ((jit(lam (h: (int) -> int). h(n))) + ((unfold f)(f)((n - 1)))))
  in (unfold g)(g)({k}))
(FT[(((int) -> int) -> int) -> int](
  mv r1, lg;
  halt[{JIT_T}, *] r1
, where
  lg -> code[z, eps]{{ra: {ANS_T}; {ARG_T} :: z}} ra.
    sld r1, 0;
    salloc 1;
    mv r2, lh;
    sst 0, r2;
    sst 1, ra;
    mv ra, lgret[z, eps];
    call r1 {{{ANS_T} :: z, 0}},
  lgret -> code[z, eps]{{r1: int; {ANS_T} :: z}} 0.
    sld ra, 0;
    sfree 1;
    ret ra {{r1}},
  lh -> code[z, eps]{{ra: {ANS_T}; int :: z}} ra.
    sld r1, 0;
    sfree 1;
    mul r1, r1, 2;
    ret ra {{r1}}
))
"""


def test_a_crossing_leaves_nothing_behind(monkeypatch):
    # Each round trip exports a wrapper block under a fresh label and
    # imports a fresh lambda.  Wrappers at one annotation share one
    # body, closed once per instantiation; closing, term substitution,
    # renaming labels (a component with no heap is entered as it is),
    # hashing a type (each node keeps its hash) and every cache kept by
    # node identity must not grow with the number of round trips, trace
    # text included.
    calls = {"substitute": [], "subst_terms": [], "rename_locations": []}
    for name, log in calls.items():
        def counting(node, mapping, fn=getattr(machine, name), log=log):
            log.append(node)
            return fn(node, mapping)

        monkeypatch.setattr(machine, name, counting)
    hashed = []
    for cls, sc in S.SCHEMA.items():
        if sc.typelevel:
            def spy(node, fn=cls._field_hash):
                hashed.append(type(node))
                return fn(node)

            monkeypatch.setattr(cls, "_field_hash", spy)
    # The boundary's memos outlive a run; fill them first, so that both
    # runs hash only the types they build.
    machine.Machine(parser.parse_program(ping_pong(1))).run(FUEL)
    sizes = []
    for k in (40, 640):
        for log in (*calls.values(), hashed):
            log.clear()
        m = machine.Machine(parser.parse_program(ping_pong(k)))
        out = m.run(FUEL, lambda record: None)
        assert out.kind == "f-value" and out.value == S.IntVal(k * (k + 1))
        sizes.append((len(calls["substitute"]), len(calls["subst_terms"]),
                      len(calls["rename_locations"]), len(hashed),
                      len(m._targets), len(m._closed), len(m._texts)))
    assert sizes[0] == sizes[1]


def entry_loop(k: int) -> str:
    """F code that adds up, for n = k..1, a boundary whose component
    counts to 100 in one heap block, so it enters the component k times."""
    adds = "".join("    add r1, r1, 1;\n" for _ in range(100))
    return f"""entry F
let g = fold mu a. (a) -> ((int) -> int)
          (lam (f: mu a. (a) -> ((int) -> int)).
             lam (n: int).
               if0 n 0 (FT[int](
                 protect ., z;
                 mv r1, 0;
                 jmp lb[z]
               , where
                 lb -> code[zb]{{r1: int; zb}} ret(int, zb).
{adds}    halt[int, zb] r1
               ) + ((unfold f)(f)((n - 1)))))
in (unfold g)(g)({k})
"""


def test_entering_a_component_again_leaves_nothing_behind(monkeypatch):
    # Each entry is an instance of the same code under a fresh label map,
    # so its block is closed and its jump resolved once for every
    # instance, untraced; a sink renders again under each instance's map
    # only the one redex of 103 that names a label, and keeps one text
    # per node.  The heap still gains a cell per entry.
    calls = {"substitute": [], "subst_terms": [], "rename_locations": []}
    for name, log in calls.items():
        def counting(node, mapping, fn=getattr(machine, name), log=log):
            log.append(node)
            return fn(node, mapping)

        monkeypatch.setattr(machine, name, counting)
    sizes = []
    for k in (50, 400):
        size = []
        for sink in (None, lambda record: None):
            for log in calls.values():
                log.clear()
            m = machine.Machine(parser.parse_program(entry_loop(k)))
            out = m.run(FUEL, sink)
            assert out.kind == "f-value" and out.value == S.IntVal(100 * k)
            assert len(m.heap) == k
            size.append((*(len(log) for log in calls.values()),
                         len(m._targets), len(m._words), len(m._closed),
                         len(m._texts)))
        assert [pretty.instr(node) for node in calls["rename_locations"]] == ["jmp lb[z]"] * k
        sizes.append(size)
    assert sizes[0][0] == sizes[1][0]
    assert sizes[0][1][-1] == sizes[1][1][-1]


@pytest.mark.parametrize("program", [entry_loop, ping_pong])
def test_neither_an_entry_nor_a_crossing_builds_a_code_block(monkeypatch, program):
    # An instance's code cell holds its checked block, and an export
    # stores the block built once for its annotation, so the blocks a
    # run builds do not grow with the entries and crossings it makes.
    built = []
    init = S.CodeBlock.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    machine.Machine(parser.parse_program(program(1))).run(FUEL)
    sizes = []
    for k in (5, 40):
        prog = parser.parse_program(program(k))
        monkeypatch.setattr(S.CodeBlock, "__init__", counting)
        built.clear()
        assert machine.Machine(prog).run(FUEL).kind == "f-value"
        monkeypatch.undo()
        sizes.append(len(built))
    assert sizes[0] == sizes[1]


def test_a_code_cell_holds_its_block_itself():
    # Every instance of a component stores its parsed blocks, and every
    # export at one annotation stores one block.
    prog = parser.parse_program(corpus_text("call_to_call"))
    m = machine.Machine(prog)
    for hb, (_, block, _) in zip(prog.main.heap, m.heap.values()):
        assert block is hb.value
    prog = parser.parse_program(entry_loop(3))
    [parsed] = [node for node, _, _ in S.subterms(prog)
                if type(node) is S.CodeBlock]
    m = machine.Machine(prog)
    m.run(FUEL)
    assert len(m.heap) == 3
    assert all(block is parsed for _, block, _ in m.heap.values())
    m = machine.Machine(parser.parse_program(ping_pong(3)))
    m.run(FUEL)
    exported = [block for label, (_, block, _) in m.heap.items()
                if label.startswith("lexp#")]
    assert len(exported) == 3
    assert all(block is exported[0] for block in exported)


def test_a_ping_pong_step_sets_at_most_one_register():
    sizes = set()
    machine.run_program(parser.parse_program(ping_pong(40)), FUEL,
                        lambda r: sizes.add(len(r["registers_delta"])))
    assert sizes == {0, 1}


# Exported functions: an annotation, and a closed lambda to wrap.  Closing
# does not look at the lambda, so its type need not match.
WRAPPED = (
    ("() -> int", "lam (). 7"),
    ("(int) -> int", "lam (x: int). x"),
    ("(int, unit) -> int", "lam (x: int, y: unit). x"),
    ("(int)[int :: . => unit :: .] -> unit", "lam [int :: . => unit :: .](x: int). ()"),
    ("(<int, unit>) -> int", "lam (p: <int, unit>). pi.0(p)"),
    ("(mu a. (a) -> int) -> int", "lam (f: mu a. (a) -> int). (unfold f)(f)"),
)
# Instantiations of a wrapper's (z, eps).  The second names zi, so the
# import's zi binder must be freshened.
WRAPPER_OMEGAS = (
    (S.SNil(), S.MHalt(S.TyInt(), S.SNil())),
    (S.SCons(S.TyInt(), S.SVar("zi")), S.MIdx(1)),
)


def imports_in(body: S.ISeq) -> list:
    out = []
    while isinstance(body, S.Seq):
        if isinstance(body.head, S.ImportI):
            out.append(body.head)
        body = body.tail
    return out


@pytest.mark.parametrize("ann, fn", WRAPPED)
def test_entering_a_wrapper_closes_it_as_substituting_its_body_would(ann, fn):
    m = machine.Machine(S.Program("F", S.UnitVal()))
    t = parser.parse_type(ann)
    lam = parser.parse_expr(fn)
    values = (lam, S.Lam(lam.params, S.SeqE(S.UnitVal(), lam.body), lam.stack))
    for omegas in WRAPPER_OMEGAS:
        entered = []
        for v in values:
            word = export_value(t, v, m.heap, m._fresh)
            _, block, scope = m.heap[word.name]
            body = m._target(word, omegas)
            mapping = {(S.kind_of_name(b), b): om
                       for b, om in zip(block.binders, omegas)}
            assert body == S.substitute(block.body, mapping)
            # The body reads the value from the scope it is entered under.
            assert m.scope == scope == (boundary._HOLE, v, None)
            [imp] = imports_in(body)
            assert imp.body.fn == S.Var(boundary._HOLE)
            assert (imp.zeta == "zi") == (omegas is WRAPPER_OMEGAS[0])
            entered.append(body)
        # Both wrappers enter one closed body: a crossing closes nothing.
        assert entered[0] is entered[1]
