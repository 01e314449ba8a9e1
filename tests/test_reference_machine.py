"""The machine against the reference machine of ``reference_machine.py``,
which substitutes on every jump and beta: both must give the same full
trace records, step for step, and the same outcome."""

import pytest
from hypothesis import given, settings

import reference_machine
from conftest import ALL_FTAL, corpus_text
from ftal import machine, parser
from ftal import syntax as S
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


# Components nested in an import's source term that name the outer
# component's labels, and a component entered once per recursive call.
@pytest.mark.parametrize("text", (NESTED_LABEL, NESTED_HEAP, NESTED_SHADOWING, entry_loop(3)),
                         ids=("nested-label", "nested-heap", "nested-shadowing", "entry-loop"))
def test_component_instances_step_as_the_reference_does(text):
    assert_agree(parser.parse_program(text), machine.DEFAULT_FUEL)


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
