"""Typechecker coverage: whole-corpus types, micro positives for each
judgment, and the context-threading rules that make the examples work.

Expected types for the bundled programs were confirmed against the
programs themselves; the micro cases were worked out by hand from the
typing rules and frozen here.
"""

import pytest

from conftest import corpus_text
from ftal import parser, pretty
from ftal import syntax as S
from ftal.errors import CheckError, KindError
from ftal.typecheck import check_expression, check_program, regfile_subtype

# Reported types for every bundled program (type; out-stack).
CORPUS_TYPES = (
    ("call_to_call", "int; *"),
    ("jit", "int; *"),
    ("basic_blocks_f1", "(int) -> int; *"),
    ("basic_blocks_f2", "(int) -> int; *"),
    ("factorial_f", "(int) -> int; *"),
    ("factorial_t", "(int) -> int; *"),
    ("withref", "int; *"),
    ("import_one_plus_one", "int; *"),
    ("push7_stack_lambda", "unit; int :: *"),
    ("identity", "(int) -> int; *"),
    ("succ", "(int) -> int; *"),
)


@pytest.mark.parametrize("name,expected", CORPUS_TYPES)
def test_corpus_program_types(name, expected):
    tau, sigma = check_program(parser.parse_program(corpus_text(name)))
    assert f"{pretty.ty(tau)}; {pretty.stk(sigma)}" == expected


def check_expr_text(src: str):
    e = parser.parse_expr(src)
    return check_expression({}, (), {}, S.SNil(), e)


def check_ok(src: str):
    return check_program(parser.parse_program(src))


def expect_error(src: str, code: str, fragment: str = ""):
    with pytest.raises(CheckError) as exc:
        check_program(parser.parse_program(src))
    assert exc.value.code == code
    assert fragment.lower() in exc.value.message.lower()
    return exc.value


# -- source-language rules --------------------------------------------------


def test_arithmetic_and_if0():
    tau, sigma = check_expr_text("if0 (1 - 1) (2 * 3) 4")
    assert pretty.ty(tau) == "int" and sigma == S.SNil()


def test_tuple_projection():
    tau, _ = check_expr_text("pi.1 (1, (), 3)")
    assert tau == S.TyUnit()


def test_multi_argument_application():
    tau, _ = check_expr_text("(lam (x: int, y: int). x - y)(7, 2)")
    assert tau == S.TyInt()


def test_zero_argument_application():
    tau, _ = check_expr_text("(lam (). 4)()")
    assert tau == S.TyInt()


def test_fold_unfold_recursive_type():
    tau, _ = check_expr_text(
        "unfold (fold mu a. (a) -> int (lam (f: mu a. (a) -> int). 3))")
    assert S.alpha_equal(tau, parser.parse_type("(mu a. (a) -> int) -> int"))


def test_let_threads_the_stack():
    # The bound boundary pushes an int; the body sees the grown stack.
    tau, sigma = check_expr_text(
        "let x = FT[unit](protect ., z; mv r1, 7; salloc 1; sst 0, r1; "
        "mv r2, (); halt[unit, int :: z] r2) in 5")
    assert tau == S.TyInt()
    assert pretty.stk(sigma) == "int :: *"


def test_sequence_discards_first_value():
    tau, sigma = check_expr_text("(); 9")
    assert tau == S.TyInt() and sigma == S.SNil()


def test_stack_lambda_type():
    tau, _ = check_expr_text(
        "lam [. => int :: .](). FT[unit](protect ., z; mv r1, 3; salloc 1; "
        "sst 0, r1; mv r2, (); halt[unit, int :: z] r2)")
    assert S.alpha_equal(tau, parser.parse_type("()[. => int :: .] -> unit"))


def test_plain_lambda_must_restore_the_stack():
    expect_error(
        "lam (x: int). FT[unit](protect ., z; mv r1, 3; salloc 1; "
        "sst 0, r1; mv r2, (); halt[unit, int :: z] r2)",
        "E-EXPR")


def test_boundary_annotation_must_be_source_grammar():
    with pytest.raises(KindError):
        check_expr_text("FT[box code[]{r1: int; *} ret(int, *)]"
                        "(mv r1, 1; halt[int, *] r1)")


# -- target-language rules --------------------------------------------------


def test_marker_moves_with_stack_growth_and_shrinkage():
    # The marker starts in ra, transfers to slot 0, rides two pushes up
    # and back down, and returns to a register before ret.
    check_ok("""entry T
(
  mv r1, 0;
  halt[int, *] r1
, where
  lA -> code[z, eps]{ra: box code[]{r1: int; z} eps; z} ra.
    salloc 1;
    sst 0, ra;
    salloc 2;
    sfree 2;
    sld ra, 0;
    sfree 1;
    mv r1, 5;
    ret ra {r1}
)
""")


def test_register_file_width_subtyping_at_jump():
    check_ok("""entry T
(
  mv r1, 1;
  mv r2, 2;
  jmp lnarrow
, where
  lnarrow -> code[]{r1: int; *} ret(int, *).
    halt[int, *] r1
)
""")


def test_regfile_subtype_predicate():
    chi = {"r1": S.TyInt(), "r2": S.TyUnit()}
    assert regfile_subtype(chi, {"r1": S.TyInt()})
    assert regfile_subtype(chi, {})
    assert not regfile_subtype(chi, {"r3": S.TyInt()})
    assert not regfile_subtype(chi, {"r1": S.TyUnit()})


def test_pack_unpack_existential():
    check_ok("""entry T
(
  mv r1, pack <int, 5> as exists a. int;
  unpack <b, r2> r1;
  halt[int, *] r2
)
""")


def test_heap_tuple_allocation_load_store():
    check_ok("""entry T
(
  mv r1, 7;
  salloc 2;
  sst 0, r1;
  sst 1, r1;
  ralloc r2, 2;
  mv r3, 9;
  st r2[1], r3;
  ld r1, r2[1];
  halt[int, *] r1
)
""")


def test_bnz_requires_matching_target():
    check_ok("""entry T
(
  mv r1, 1;
  bnz r1, lout;
  halt[int, *] r1
, where
  lout -> code[]{r1: int; *} ret(int, *).
    mv r1, 2;
    halt[int, *] r1
)
""")


def test_import_grows_the_visible_stack_type():
    tau, sigma = check_expr_text(
        "FT[int](import r1, * as z, int TF{ 40 + 2 }; halt[int, *] r1)")
    assert tau == S.TyInt() and sigma == S.SNil()


def test_protect_hides_and_restores_the_tail():
    # After protect the component works against an abstract tail; the
    # reported out-stack is in terms of the original stack again.
    tau, sigma = check_expr_text(
        "let x = FT[unit](protect ., z; mv r1, 1; salloc 1; sst 0, r1; "
        "mv r2, (); halt[unit, int :: z] r2) in "
        "FT[int](protect int :: ., z2; sld r1, 0; sfree 1; "
        "halt[int, z2] r1)")
    assert tau == S.TyInt()
    assert pretty.stk(sigma) == "*"


def test_heap_block_error_names_the_label():
    err = expect_error("""entry T
(
  mv r1, 0;
  halt[int, *] r1
, where
  lbroken -> code[]{r1: int; *} ret(int, *).
    halt[unit, *] r1
)
""", "E-SEQ")
    assert "lbroken" in err.where or "lbroken" in err.message


def test_dangling_tuple_word_is_a_heap_error():
    expect_error("""entry T
(
  mv r1, 0;
  halt[int, *] r1
, where
  lT -> box <lmissing>
)
""", "E-HEAP")


def test_infer_cell_resolves_through_final_halt():
    prog = parser.parse_program(corpus_text("call_to_call"))
    tau, sigma = check_program(prog)
    assert tau == S.TyInt() and sigma == S.SNil()


def test_checking_is_repeatable():
    src = corpus_text("jit")
    a = check_program(parser.parse_program(src))
    b = check_program(parser.parse_program(src))
    assert S.alpha_equal(a[0], b[0]) and S.alpha_equal(a[1], b[1])


# -- pinned rejections ------------------------------------------------------


def _heap_program(binding: str) -> str:
    return f"""entry T
(
  mv r1, 0;
  halt[int, *] r1
, where
  {binding}
)
"""


def _block(ann: str) -> str:
    return _heap_program(f"lA -> {ann}.\n    halt[int, *] r1")


# Each rejection with its exact code, message and where.
PINNED = (
    ("tuple_cycle", _heap_program("lA -> box <lB>,\n  lB -> box <lA>"),
     ("E-HEAP", "unresolvable heap bindings (cycle or dangling label): "
                "lA, lB", "")),
    # Of two labels bound twice, the one declared first is reported.
    ("label_bound_twice", _heap_program(
        "lB -> box <1>,\n  lA -> box <2>,\n  lA -> box <3>,\n  lB -> box <4>"),
     ("E-HEAP", "label lB bound twice", "")),
    ("repeated_binder", _block("code[a, a]{r1: int; *} ret(int, *)"),
     ("E-HEAP", "lA: repeated binder a", "")),
    ("two_stack_binders", _block("code[z1, z2]{r1: int; *} ret(int, *)"),
     ("E-HEAP", "lA: code type abstracts more than one stack variable", "")),
    ("type_variable_out_of_scope", _block("code[]{r1: b; *} ret(int, *)"),
     ("E-HEAP", "lA: type variable b is not in scope", "")),
    ("stack_variable_out_of_scope", _block("code[]{r1: int; zq} ret(int, *)"),
     ("E-HEAP", "lA: stack variable zq is not in scope", "")),
    ("marker_variable_out_of_scope", _block("code[]{r1: int; *} epsq"),
     ("E-HEAP", "lA: marker variable epsq is not in scope", "")),
    ("out_marker_in_code_type", _block("code[]{r1: int; *} out"),
     ("E-HEAP", "lA: out marker inside a code type", "")),
    ("register_marker_without_continuation", _block("code[]{r1: int; *} r1"),
     ("E-HEAP", "lA: marker r1 does not point at a continuation", "")),
    ("fold_binder_of_the_wrong_kind", "entry F\nfold (mu z. int) 1\n",
     ("KindError", "z cannot bind a type", "")),
    # With two faults, the one met first in a left-to-right walk wins; a
    # code type's marker counts as met after the code type's parts.
    ("fault_inside_before_the_marker", _block("code[]{r1: b; *} out"),
     ("E-HEAP", "lA: type variable b is not in scope", "")),
    ("marker_before_a_later_fault",
     _block("code[]{r1: box code[]{r1: int; *} out, r2: b; *} ret(int, *)"),
     ("E-HEAP", "lA: out marker inside a code type", "")),
)


@pytest.mark.parametrize("src,expected", [p[1:] for p in PINNED],
                         ids=[p[0] for p in PINNED])
def test_pinned_rejection(src, expected):
    with pytest.raises(CheckError) as exc:
        check_program(parser.parse_program(src))
    assert (exc.value.code, exc.value.message, exc.value.where) == expected
