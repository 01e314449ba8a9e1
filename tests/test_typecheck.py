"""Typechecker coverage: whole-corpus types, micro positives for each
judgment, and the context-threading rules that make the examples work.

Expected types for the bundled programs were confirmed against the
programs themselves; the micro cases were worked out by hand from the
typing rules and frozen here.
"""

import pytest

from conftest import corpus_text
from ftal import machine, parser, pretty, typecheck
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


@pytest.mark.parametrize("src,checked,kind,stack,steps", (
    ("entry T (salloc 2; protect unit :: unit :: ., z1; "
     "protect unit :: ., z2; mv r1, 4; halt[int, unit :: z2] r1)",
     "int; unit :: unit :: *", "halted", (S.UnitVal(), S.UnitVal()), 5),
    ("entry F FT[int](salloc 2; protect unit :: unit :: ., z1; "
     "protect unit :: ., z2; sfree 1; mv r1, 4; halt[int, z2] r1)",
     "int; unit :: *", "f-value", (S.UnitVal(),), 8),
))
def test_nested_protects_are_put_back_last_first(src, checked, kind, stack,
                                                 steps):
    # z2 hides unit :: z1, so z2 must be put back before z1 is.
    prog = parser.parse_program(src)
    tau, sigma = check_program(prog)
    assert f"{pretty.ty(tau)}; {pretty.stk(sigma)}" == checked
    out = machine.run_program(prog, 100)
    assert (out.kind, out.value, out.stack, out.steps) == \
        (kind, S.IntVal(4), stack, steps)


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


def _heap_program(binding: str, body: str = "mv r1, 0;\n  halt[int, *] r1") -> str:
    return f"""entry T
(
  {body}
, where
  {binding}
)
"""


def _block(ann: str, body: str = "halt[int, *] r1") -> str:
    return _heap_program(f"lA -> {ann}.\n    {body}")


def _main(body: str) -> str:
    return f"entry T\n(\n  {body}\n)\n"


# A continuation for a callee's stack and marker variables, a
# continuation that halts, and a callee that returns through ra.
CONT = "box code[]{r1: int; z} eps"
HALT_CONT = "box code[]{r1: int; *} ret(int, *)"
CALLEE = f"code[z, eps]{{ra: {CONT}; z}} ra"


def _call(callee: str, body: str = "mv r1, 2;\n    ret ra {r1}",
          caller: str = "mv ra, lret;\n  call lB {*, ret(int, *)}") -> str:
    """The main body calls lB, a callee of type callee, and returns to
    lret, which halts."""
    return _heap_program(
        f"lB -> {callee}.\n    {body},\n"
        "  lret -> code[]{r1: int; *} ret(int, *).\n    halt[int, *] r1", caller)


def _in_ra_block(body: str) -> str:
    """body in a block whose marker is in ra."""
    return _block(CALLEE, body)


def _in_slot_block(body: str) -> str:
    """body in a block whose marker is in stack slot 0."""
    return _block(f"code[]{{r1: int; {HALT_CONT} :: *}} 0", body)


# A callee that loops at any stack, so that a call to it may name any
# halting marker.
LOOP = "lret -> code[z2]{r1: int; z2} ret(int, *).\n    jmp lret[z2]"


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
    ("two_marker_binders", _block("code[eps1, eps2]{r1: int; *} ret(int, *)"),
     ("E-HEAP", "lA: code type abstracts more than one marker variable", "")),
    ("index_marker_past_the_stack", _block("code[]{r1: int; *} 0"),
     ("E-HEAP", "lA: marker 0 does not point at a continuation", "")),
    ("marker_variable_at_an_instruction",
     _block("code[z, eps]{r1: int; z} eps", "halt[int, z] r1"),
     ("E-WFRET", "marker variable eps reaches an instruction", "lA")),
    ("register_in_a_heap_tuple", _heap_program("lA -> box <r1>"),
     ("E-HEAP", "lA: register r1 holds no value", "")),
    # A tuple waiting for a label is taken up again only where a scan in
    # declaration order next reaches it: lA waits a round for lB, so lC's
    # fault is met first, and lb, which waits for lL while lL waits for
    # lM, is met before lc in the second round.
    ("heap_tuple_waits_a_round",
     _heap_program("lA -> box <lB, r1>,\n  lB -> box <1>,\n  lC -> box <r2>"),
     ("E-HEAP", "lC: register r2 holds no value", "")),
    ("heap_tuple_resumes_in_declaration_order", _heap_program(
        "lL -> box <lM>,\n  lb -> box <lL, r1>,\n  lc -> box <lN, r2>,\n"
        "  lM -> box <1>,\n  lN -> box <1>"),
     ("E-HEAP", "lb: register r1 holds no value", "")),

    # The call rule.
    ("call_target_not_code", _heap_program("lT -> box <1>", "call lT {*, ret(int, *)}"),
     ("E-SEQ", "call target is not code", "")),
    ("call_target_one_binder",
     _call("code[eps]{ra: box code[]{r1: int; *} eps; *} ra"),
     ("E-SEQ", "call target must abstract a stack and a marker", "")),
    ("callee_stack_tail", _call("code[z, eps]{ra: box code[]{r1: int; *} eps; *} ra"),
     ("E-SEQ", "callee stack must end in its own stack variable", "")),
    ("callee_slot_count",
     _call(f"code[z, eps]{{ra: {CONT}; int :: z}} ra", "sfree 1;\n    mv r1, 2;\n    ret ra {r1}"),
     ("E-SEQ", "callee expects 1 transferred slots, the call hands over 0", "")),
    ("callee_slot_type",
     _call(f"code[z, eps]{{ra: {CONT}; int :: z}} ra", "sfree 1;\n    mv r1, 2;\n    ret ra {r1}",
           "salloc 1;\n  mv ra, lret;\n  call lB {*, ret(int, *)}"),
     ("E-SEQ", "transferred slot 0 is unit, the callee expects int", "")),
    ("callee_without_continuation",
     _call("code[z, eps]{r1: int; z} ret(int, z)", "halt[int, z] r1"),
     ("E-SEQ", "call target has no continuation", "")),
    ("callee_continuation_marker",
     _call("code[z, eps]{ra: box code[]{r1: int; z} ret(int, *); z} ra"),
     ("E-SEQ", "callee continuation must carry the callee's marker variable", "")),
    ("callee_continuation_stack",
     _call("code[z, eps]{ra: box code[]{r1: int; *} eps; z} ra", "jmp lB[z, eps]"),
     ("E-SEQ", "callee continuation stack must end in the callee's stack variable", "")),
    ("call_changes_the_halting_marker", _heap_program(
        "lA -> code[]{r1: int; *} ret(int, *).\n    call lB {*, ret(unit, *)},\n"
        f"  lB -> {CALLEE}.\n    mv r1, 2;\n    ret ra {{r1}}"),
     ("E-SEQ", "call must pass the current halting marker on", "lA")),
    ("call_marker_slot_in_prefix", _heap_program(
        f"lA -> code[]{{r1: int; {HALT_CONT} :: *}} 0.\n    call lB {{*, 1}},\n"
        f"  lB -> code[z, eps]{{ra: {CONT}; {HALT_CONT} :: z}} ra.\n"
        "    sfree 1;\n    mv r1, 2;\n    ret ra {r1}"),
     ("E-SEQ", "the marker slot lies inside the transferred prefix", "lA")),
    ("callee_registers_mention_binders",
     _call(f"code[z, eps]{{r2: {CONT}, ra: {CONT}; z}} ra"),
     ("E-SEQ", "callee registers other than the return address must not "
               "mention its abstracted variables", "")),
    ("registers_do_not_satisfy_callee", _call(CALLEE, caller="call lB {*, ret(int, *)}"),
     ("E-SEQ", "registers do not satisfy the callee", "")),

    # ret and halt.
    ("ret_continuation_stack", _in_ra_block("mv r1, 2;\n    salloc 1;\n    ret ra {r1}"),
     ("E-SEQ", "continuation expects stack z, current is unit :: z", "lA")),
    ("ret_result_register", _in_ra_block("mv r2, 2;\n    ret ra {r2}"),
     ("E-SEQ", "continuation reads r1, not r2", "lA")),
    ("ret_result_type", _in_ra_block("mv r1, ();\n    ret ra {r1}"),
     ("E-SEQ", "result register holds unit, the continuation wants int", "lA")),
    ("halt_stack_mismatch", _main("mv r1, 0;\n  salloc 1;\n  halt[int, *] r1"),
     ("E-SEQ", "halt annotation stack * does not match the current stack unit :: *", "")),

    # import.
    ("import_with_register_marker",
     _in_ra_block("import r1, z as z2, int TF{ 3 };\n    ret ra {r1}"),
     ("E-SEQ", "import with a register marker", "lA")),
    ("import_body_type", _main("import r1, * as z, int TF{ () };\n  halt[int, *] r1"),
     ("E-SEQ", "import body has type unit, the annotation says int", "")),
    # The call names a halting marker at stack *, so the body ends at *.
    ("import_loses_protected_stack", _heap_program(
        f"lB -> {CALLEE}.\n    mv r1, 2;\n    ret ra {{r1}},\n  {LOOP}",
        "import r1, * as z, int TF{ FT[int](mv ra, lret[z];\n"
        "    call lB {z, ret(int, *)}) };\n  halt[int, *] r1"),
     ("E-SEQ", "import body does not preserve the protected stack", "")),
    ("import_leaks_protected_stack", _heap_program(
        LOOP,
        "import r1, * as z, int TF{ FT[int](mv r2, lret[z];\n    salloc 1;\n"
        "    sst 0, r2;\n    mv r1, 0;\n"
        "    halt[int, box code[]{r1: int; z} ret(int, *) :: z] r1) };\n"
        "  halt[int, *] r1"),
     ("E-SEQ", "protected stack variable escapes the import", "")),
    # The marker rides a push and a pop, then the import's one new slot:
    # it ends at slot 1, which ret names.
    ("import_shifts_the_marker_slot", _in_slot_block(
        "salloc 1;\n    sfree 1;\n"
        f"    import r2, {HALT_CONT} :: * as z, int TF{{ FT[int](salloc 1;\n"
        "      mv r1, 0;\n      halt[int, unit :: z] r1) };\n    ret ra {r1}"),
     ("E-SEQ", "the return marker must be in a register (ra) for ret, current is 1", "lA")),

    # Instructions.
    ("arithmetic_on_unit", _main("mv r1, ();\n  add r1, r1, 1;\n  halt[int, *] r1"),
     ("E-SEQ", "arithmetic operand must be an integer, got unit", "")),
    ("marker_register_as_operand", _in_ra_block("add r1, ra, 1;\n    ret ra {r1}"),
     ("E-SEQ", "marker register used as an operand", "lA")),
    ("marker_register_stored", _in_ra_block("st r1[0], ra;\n    ret ra {r1}"),
     ("E-SEQ", "marker register stored to the heap", "lA")),
    ("mv_moves_the_marker", _in_ra_block("mv r3, ra;\n    ret ra {r1}"),
     ("E-SEQ", "the return marker must be in a register (ra) for ret, current is r3", "lA")),
    ("load_from_an_integer", _main("mv r1, 0;\n  ld r2, r1[0];\n  halt[int, *] r1"),
     ("E-SEQ", "load from a non-tuple", "")),
    ("store_into_an_integer", _main("mv r1, 0;\n  st r1[0], r1;\n  halt[int, *] r1"),
     ("E-SEQ", "store into a non-reference", "")),
    ("store_of_the_wrong_type",
     _main("mv r1, 0;\n  salloc 1;\n  ralloc r2, 1;\n  st r2[0], r1;\n  halt[int, *] r1"),
     ("E-SEQ", "store of int into a slot of unit", "")),
    ("allocation_over_the_marker_slot", _in_slot_block("ralloc r2, 1;\n    ret ra {r1}"),
     ("E-SEQ", "allocation would consume the marker slot", "lA")),
    ("unpack_of_an_integer", _main("mv r1, 0;\n  unpack <b, r2> r1;\n  halt[int, *] r1"),
     ("E-SEQ", "unpack of a non-package", "")),
    ("unfold_of_an_integer", _main("mv r1, 0;\n  unfold r2, r1;\n  halt[int, *] r1"),
     ("E-SEQ", "unfold of a non-recursive value", "")),
    ("protect_slot_mismatch",
     _main("salloc 1;\n  protect int :: ., z;\n  mv r1, 0;\n  halt[int, z] r1"),
     ("E-SEQ", "protect keeps int at slot 0, the stack has unit", "")),
    ("jump_to_a_tuple", _heap_program("lT -> box <1>", "mv r1, 0;\n  jmp lT"),
     ("E-SEQ", "jump target is not code", "")),
    ("jump_at_the_wrong_stack", _heap_program(
        "lJ -> code[]{r1: int; *} ret(int, *).\n    halt[int, *] r1",
        "mv r1, 0;\n  salloc 1;\n  jmp lJ"),
     ("E-SEQ", "jump target expects stack *, current is unit :: *", "")),
    ("stack_tail_not_found", _main("import r1, int :: * as z, int TF{ 3 };\n  halt[int, *] r1"),
     ("E-SEQ", "the stack does not end in the import tail int :: *", "")),

    # Components, and a term that only T has.
    ("mutable_binding_in_scope", _heap_program(
        "lR -> ref <1>",
        "import r1, * as z, int TF{ FT[int](mv r1, 1;\n    halt[int, z] r1) };\n"
        "  halt[int, *] r1"),
     ("E-COMPONENT", "component under a heap with mutable binding lR", "")),
    ("label_already_bound", _heap_program(
        "lR -> box <1>",
        "import r1, * as z, int TF{ FT[int](mv r1, 1;\n    halt[int, z] r1,\n"
        "    where lR -> box <2>) };\n  halt[int, *] r1"),
     ("E-HEAP", "label lR is already bound", "")),
    ("local_escapes", _main("mv r1, pack <int, 5> as exists a. a;\n  unpack <b, r2> r1;\n"
                            "  halt[b, *] r2"),
     ("E-COMPONENT", "local b escapes the component", "")),
    ("f_instantiation", "entry F\n(lam (x: int). x)[int]\n",
     ("E-EXPR", "not a source-language expression", "")),
)


def _chain(n: int) -> str:
    """n tuples, each pointing at the one declared after it."""
    links = "".join(f"t{i} -> box <t{i + 1}>,\n  " for i in range(n - 1))
    return _heap_program(f"{links}t{n - 1} -> box <1>")


@pytest.mark.parametrize("n", [500, 2000])
def test_a_forward_heap_chain_takes_linearly_many_steps(monkeypatch, n):
    # Each tuple is taken up once in the first round and once more when
    # the next one is typed; rescanning every waiting tuple in each round
    # would take about n * n / 2 steps.
    calls = 0

    def counted(node):
        nonlocal calls
        calls += 1
        return S.free_names(node)

    monkeypatch.setattr(typecheck, "free_names", counted)
    tau, _ = check_program(parser.parse_program(_chain(n)))
    assert pretty.ty(tau) == "int"
    assert calls <= 2 * n + 2


@pytest.mark.parametrize("src,expected", [p[1:] for p in PINNED],
                         ids=[p[0] for p in PINNED])
def test_pinned_rejection(src, expected):
    with pytest.raises(CheckError) as exc:
        check_program(parser.parse_program(src))
    assert (exc.value.code, exc.value.message, exc.value.where) == expected
