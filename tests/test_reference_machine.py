"""The machine against the reference machine of ``reference_machine.py``,
which substitutes on every jump and beta: both must give the same full
trace records, step for step, and the same outcome."""

import pytest
from hypothesis import given, settings

import reference_machine
from conftest import ALL_FTAL, corpus_text
from mutations import ACCEPTED, OPERAND_VALUES
from ftal import machine, parser
from ftal import syntax as S
from ftal.errors import CheckError
from ftal.typecheck import check_program
from test_machine import (APPLIED, F_FORMS, FOLDS_AND_TUPLES, GOLDEN_FUEL, GOLDEN_INPUTS,
                          NESTED_HEAP, NESTED_LABEL, NESTED_SHADOWING, STUCK_PROGRAMS,
                          UNPACK_SHADOWING, UNPACK_TO_JUMP, entry_loop, ping_pong)
from test_reference import programs


def assert_agree(prog: S.Program, fuel: int) -> None:
    got, want = [], []
    out = machine.run_program(prog, fuel, got.append)
    ref = reference_machine.Machine(prog).run(fuel, want.append)
    for mine, theirs in zip(got, want):
        assert mine == theirs
    assert len(got) == len(want)
    assert out == ref


@pytest.mark.parametrize("name", ALL_FTAL)
def test_corpus_programs_step_as_the_reference_does(name):
    prog = parser.parse_program(corpus_text(name))
    if name not in APPLIED:
        assert_agree(prog, GOLDEN_FUEL)
        return
    for n in GOLDEN_INPUTS:
        assert_agree(S.Program("F", S.App(prog.main, (S.IntVal(n),))), GOLDEN_FUEL)


@pytest.mark.parametrize("k", (1, 3, 12, 40))
def test_boundary_round_trips_step_as_the_reference_does(k):
    assert_agree(parser.parse_program(ping_pong(k)), machine.DEFAULT_FUEL)


# Components whose imports read source variables: each import must run
# under the boundary's term environment, whatever the one before bound.
SCOPED = ("""entry F
let x = 7 in
FT[int](
  import r1, * as zi, int TF{ (lam (x: int). x)(5) };
  import r2, * as zi, int TF{ x };
  add r1, r1, r2;
  halt[int, *] r1
)
""", """entry F
let f = lam (y: int). FT[int](
  protect ., z;
  import r1, z as zi, int TF{ (lam (y: int). y * 2)(y + 1) };
  import r2, z as zi, int TF{ y };
  mul r1, r1, r2;
  halt[int, z] r1
) in
(f(3), f(4))
""")


@pytest.mark.parametrize("text", SCOPED, ids=("rebound-in-import", "lambda-argument"))
def test_imports_step_as_the_reference_does(text):
    prog = parser.parse_program(text)
    check_program(prog)
    assert_agree(prog, machine.DEFAULT_FUEL)


_ARROW = "box code[z, eps]{ra: box code[]{r1: int; z} eps; int :: z} ra"
# A heap block, not the body, runs an import whose closure names the
# block's instance's label.  The first instance's closure is called after
# a second instance has been entered, and must reach its own instance.
CLOSURE_IN_A_BLOCK = f"""entry F
let mk = lam (u: int). FT[(int) -> int](
  protect ., z;
  mv r1, 0;
  jmp lb[z]
, where
  lb -> code[zb]{{r1: int; zb}} ret({_ARROW}, zb).
    import r1, zb as zi, (int) -> int TF{{ lam (x: int). FT[int](
      protect ., zp;
      import r1, zp as zi, int TF{{ x }};
      jmp lc[zp]) }};
    halt[{_ARROW}, zb] r1,
  lc -> code[zs]{{r1: int; zs}} ret(int, zs).
    mul r1, r1, 3;
    halt[int, zs] r1
) in
let f = mk(1) in
let g = mk(2) in
(f(5), g(6))
"""
# Unchecked: a heap block names a source variable, and is called from
# source code that does not bind it.
BLOCK_NAMES_A_VARIABLE = f"""entry F
let mk = lam (y: int). FT[(int) -> int](
  mv r1, l;
  halt[{_ARROW}, *] r1
, where
  l -> code[z, eps]{{ra: box code[]{{r1: int; z}} eps; int :: z}} ra.
    sld r1, 0;
    sst 0, ra;
    import r2, box code[]{{r1: int; z}} eps :: z as zi, int TF{{ y }};
    add r1, r1, r2;
    sld ra, 0;
    sfree 1;
    ret ra {{r1}}
) in
let f = mk(10) in
let g = mk(20) in
(f(1), g(2))
"""


# Components nested in an import's source term that name the outer
# component's labels, a component entered once per recursive call, and
# the two programs above.
@pytest.mark.parametrize("text", (NESTED_LABEL, NESTED_HEAP, NESTED_SHADOWING, entry_loop(3),
                                  CLOSURE_IN_A_BLOCK, BLOCK_NAMES_A_VARIABLE),
                         ids=("nested-label", "nested-heap", "nested-shadowing", "entry-loop",
                              "closure-in-a-block", "block-names-a-variable"))
def test_component_instances_step_as_the_reference_does(text):
    assert_agree(parser.parse_program(text), machine.DEFAULT_FUEL)


def test_a_closure_made_in_a_block_jumps_to_its_own_instance():
    prog = parser.parse_program(CLOSURE_IN_A_BLOCK)
    check_program(prog)
    records = []
    out = machine.run_program(prog, machine.DEFAULT_FUEL, records.append)
    assert out.value == S.TupleVal((S.IntVal(15), S.IntVal(18)))
    assert [r["redex"] for r in records if r["jump"] == "jmp"] == [
        "jmp lb#0[z]", "jmp lb#4[z]", "jmp lc#1[zp]", "jmp lc#5[zp]"]


def test_a_block_reads_a_source_variable_where_its_instance_was_entered():
    # Unchecked: the block reads y from the scope its instance was
    # entered under, as the reference reads the y it substituted.
    prog = parser.parse_program(BLOCK_NAMES_A_VARIABLE)
    with pytest.raises(CheckError, match="unbound variable y"):
        check_program(prog)
    out = machine.run_program(prog, machine.DEFAULT_FUEL)
    assert out.value == S.TupleVal((S.IntVal(11), S.IntVal(22)))


# T programs that unpack, unfold and balloc, which no corpus program does.
T_PROGRAMS = (UNPACK_TO_JUMP, UNPACK_SHADOWING,
              *(text for text, _, _ in FOLDS_AND_TUPLES))


@pytest.mark.parametrize("text", T_PROGRAMS,
                         ids=("unpack", "unpack-shadowing", "heap-tuples", "folded-loop"))
def test_t_programs_step_as_the_reference_does(text):
    assert_agree(parser.parse_program(text), machine.DEFAULT_FUEL)


@pytest.mark.parametrize("text", [text for text, _, _, _ in F_FORMS],
                         ids=("fold", "annotated-let"))
def test_f_forms_step_as_the_reference_does(text):
    assert_agree(parser.parse_program(text), machine.DEFAULT_FUEL)



@pytest.mark.parametrize("name", OPERAND_VALUES)
def test_an_operand_reads_the_register_under_its_shells(name):
    # R-hat reads a register under an instantiation, a pack or a fold, so
    # each program halts with its value on both machines.
    prog = parser.parse_program(dict(ACCEPTED)[name])
    check_program(prog)
    out = machine.run_program(prog, machine.DEFAULT_FUEL)
    assert (out.kind, out.value) == ("halted", S.IntVal(OPERAND_VALUES[name]))
    assert_agree(prog, machine.DEFAULT_FUEL)


@pytest.mark.parametrize("name", STUCK_PROGRAMS)
def test_stuck_programs_step_as_the_reference_does(name):
    assert_agree(parser.parse_program(STUCK_PROGRAMS[name][0]), machine.DEFAULT_FUEL)

def test_the_inputs_hold_every_target_rule():
    texts = (*(corpus_text(name) for name in ALL_FTAL), ping_pong(1),
             *SCOPED, *T_PROGRAMS)
    seen = {type(node) for text in texts
            for node, _, _ in S.subterms(parser.parse_program(text))}
    assert set(machine.T_RULES) - seen == set()


@settings(max_examples=100)
@given(programs())
def test_pure_f_programs_step_as_the_reference_does(case):
    assert_agree(S.Program("F", case[1]), machine.DEFAULT_FUEL)
