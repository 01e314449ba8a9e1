"""Negative typing suite: each planted defect is rejected with the
expected error code, and the benign edits stay accepted."""

import pytest

import mutations
from ftal import machine, parser, typecheck
from ftal.errors import CheckError


@pytest.mark.parametrize(
    "name,code,fragment,src",
    mutations.REJECTED,
    ids=[m[0] for m in mutations.REJECTED])
def test_rejected_mutation(name, code, fragment, src):
    prog = parser.parse_program(src)
    with pytest.raises(CheckError) as exc:
        typecheck.check_program(prog)
    assert exc.value.code == code
    assert fragment.lower() in exc.value.message.lower()


def test_suite_meets_the_minimum_size():
    assert len(mutations.REJECTED) >= 12


def test_rejected_codes_are_the_documented_set():
    codes = {m[1] for m in mutations.REJECTED}
    assert codes <= {"E-SEQ", "E-WFRET", "E-EXPR", "E-HEAP", "E-VAL",
                     "E-COMPONENT", "KindError"}


@pytest.mark.parametrize(
    "name,src", mutations.ACCEPTED, ids=[m[0] for m in mutations.ACCEPTED])
def test_accepted_mutation_checks_and_runs(name, src):
    prog = parser.parse_program(src)
    typecheck.check_program(prog)
    out = machine.run_program(prog, 1000000)
    assert out.kind in ("f-value", "halted")
    assert out.kind != "stuck"


# The exact (code, message, where) of every rejected mutation.
GOLDEN = {
    "jmp_to_different_return_marker":
        ("E-SEQ", "jump target expects marker 0, current is ret(int, *)", "lA"),
    "halt_without_halting_marker":
        ("E-SEQ", "halt without a halting marker", "lA"),
    "ret_with_stack_index_marker":
        ("E-SEQ", "the return marker must be in a register (ra) for ret, "
                  "current is 0", "lB"),
    "call_while_marker_in_register":
        ("E-SEQ", "call with a register marker", "lA"),
    "call_with_wrong_return_index":
        ("E-SEQ", "call return marker should be 0, the call says 1", "l1"),
    "mv_into_marker_register":
        ("E-SEQ", "move would overwrite the marker register", "lA"),
    "st_into_box_tuple":
        ("E-SEQ", "store into an immutable tuple", ""),
    "protect_hiding_stack_index_marker":
        ("E-WFRET", "protect would hide the marker slot", "lA"),
    "register_file_subtype_violation":
        ("E-SEQ", "registers do not satisfy the jump target", "lA"),
    "import_exposing_marker_slot":
        ("E-SEQ", "import would expose the marker slot", "lA"),
    "sfree_past_marker":
        ("E-SEQ", "sfree would remove the marker slot", "lA"),
    "uninstantiated_jump_target":
        ("E-SEQ", "jump target is not fully instantiated", "lA"),
    "sst_overwriting_marker_slot":
        ("E-SEQ", "stack store would overwrite the marker slot", "lA"),
    "unbound_source_variable":
        ("E-EXPR", "unbound variable y", ""),
    "if0_branch_type_mismatch":
        ("E-EXPR", "branches disagree: int against unit", ""),
    "application_arity_mismatch":
        ("E-EXPR", "2 parameters, 1 arguments", ""),
    "boundary_halt_type_mismatch":
        ("E-SEQ", "halt at unit, the boundary expects int", ""),
    "duplicate_heap_labels":
        ("E-HEAP", "label lA bound twice", ""),
    "dangling_heap_label":
        ("E-VAL", "label lmissing is not bound in the heap", ""),
    "ret_at_halting_position":
        ("E-SEQ", "the return marker must be in a register (ra) for ret, "
                  "current is unresolved", ""),
    "boundary_jump_halts_at_wrong_type":
        ("E-SEQ", "jump target halts at unit, expected int", ""),
    "branch_adopting_stack_index_marker":
        ("E-SEQ", "branch target marker 0 cannot be adopted at a halting "
                  "position", ""),
    "call_returning_stack_index_at_halt":
        ("E-SEQ", "call at a halting position must return a halting marker",
         ""),
    "boundary_call_returns_wrong_type":
        ("E-SEQ", "call returns int, the boundary expects unit", ""),
    "halt_disagreeing_with_branch_marker":
        ("E-SEQ", "halt does not match the halting marker", ""),
    "jump_disagreeing_with_branch_marker":
        ("E-SEQ", "jump target expects marker ret(unit, *), current is "
                  "ret(int, *)", ""),
    "arith_left_operand_not_int":
        ("E-EXPR", "arithmetic on a non-integer", ""),
    "if0_condition_not_int":
        ("E-EXPR", "condition must be an integer", ""),
    "if0_branches_leave_different_stacks":
        ("E-EXPR", "branches disagree on the stack", ""),
    "stack_lambda_body_leaves_wrong_stack":
        ("E-EXPR", "function body does not produce the declared stack", ""),
    "apply_an_integer":
        ("E-EXPR", "application of a non-function", ""),
    "argument_of_wrong_type":
        ("E-EXPR", "argument 1 has type unit, expected int", ""),
    "stack_lambda_applied_to_short_stack":
        ("E-EXPR", "the stack does not provide the required prefix", ""),
    "stack_lambda_applied_to_wrong_slot":
        ("E-EXPR", "stack slot 0 is unit, the function needs int", ""),
    "project_from_integer":
        ("E-EXPR", "projection from a non-tuple", ""),
    "fold_at_non_recursive_type":
        ("E-EXPR", "fold annotation must be recursive", ""),
    "fold_of_wrong_type":
        ("E-EXPR", "folded value has type unit, expected int", ""),
    "unfold_an_integer":
        ("E-EXPR", "unfold of a non-recursive value", ""),
    "word_from_empty_register":
        ("E-VAL", "register r2 holds no value", ""),
    "pack_at_non_existential":
        ("E-VAL", "pack annotation must be existential", ""),
    "pack_of_wrong_type":
        ("E-VAL", "packed value does not match its annotation", ""),
    "word_fold_at_non_recursive_type":
        ("E-VAL", "fold annotation must be recursive", ""),
    "word_fold_of_wrong_type":
        ("E-VAL", "folded value does not match its annotation", ""),
    "instantiate_monomorphic_code":
        ("E-VAL", "instantiation of a non-polymorphic value", "lA"),
    "instantiate_stack_binder_with_type":
        ("E-VAL", "instantiation kind mismatch for binder z", "lA"),
    "instruction_under_marker_variable":
        ("E-WFRET", "marker variable eps reaches an instruction", "lA"),
}


def test_every_rejected_mutation_has_a_golden_error():
    assert sorted(GOLDEN) == sorted(m[0] for m in mutations.REJECTED)


@pytest.mark.parametrize(
    "name,src", [(m[0], m[3]) for m in mutations.REJECTED],
    ids=[m[0] for m in mutations.REJECTED])
def test_rejected_mutation_golden_error(name, src):
    with pytest.raises(CheckError) as exc:
        typecheck.check_program(parser.parse_program(src))
    assert (exc.value.code, exc.value.message, exc.value.where) == GOLDEN[name]
