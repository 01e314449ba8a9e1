"""Mutated programs for the negative typing suite.

Each rejected mutation is a complete program with exactly one planted
defect, paired with the error code the checker must raise and a fragment
of the message.  The accepted mutations are benign edits of bundled
programs that must still typecheck and run; the safety suite executes
them.
"""

# A reusable continuation shape: a block expecting an int in r1 on a
# caller-supplied stack tail.
_CONT = "box code[]{r1: int; z} eps"
# A polymorphic block that halts with the int in r1.
_POLY = "code[a]{r1: int; *} ret(int, *)"

REJECTED = (
    # (name, expected error code, message fragment, program source)
    ("jmp_to_different_return_marker", "E-SEQ", "marker",
     """entry T
(
  mv r1, 0;
  halt[int, *] r1
, where
  lA -> code[]{r1: int; box code[]{r1: int; *} ret(int, *) :: *} ret(int, *).
    jmp lB,
  lB -> code[]{r1: int; box code[]{r1: int; *} ret(int, *) :: *} 0.
    sld ra, 0;
    sfree 1;
    ret ra {r1}
)
"""),
    ("halt_without_halting_marker", "E-SEQ", "halt",
     f"""entry T
(
  mv r1, 0;
  halt[int, *] r1
, where
  lA -> code[z, eps]{{r1: int, ra: {_CONT}; z}} ra.
    halt[int, z] r1
)
"""),
    ("ret_with_stack_index_marker", "E-SEQ", "must be in a register",
     """entry T
(
  mv r1, 0;
  halt[int, *] r1
, where
  lB -> code[]{r1: int; box code[]{r1: int; *} ret(int, *) :: *} 0.
    ret ra {r1}
)
"""),
    ("call_while_marker_in_register", "E-SEQ", "call",
     f"""entry T
(
  mv r1, 0;
  halt[int, *] r1
, where
  lA -> code[z, eps]{{ra: {_CONT}; z}} ra.
    call lT {{z, 0}},
  lT -> code[z, eps]{{ra: {_CONT}; z}} ra.
    mv r1, 1;
    ret ra {{r1}}
)
"""),
    ("call_with_wrong_return_index", "E-SEQ", "",
     f"""entry T
(
  mv ra, l1ret;
  call l1 {{*, ret(int, *)}}
, where
  l1 -> code[z, eps]{{ra: {_CONT}; z}} ra.
    salloc 1;
    sst 0, ra;
    mv ra, l2ret[z, eps];
    call l2 {{{_CONT} :: z, 1}},
  l1ret -> code[]{{r1: int; *}} ret(int, *).
    halt[int, *] r1,
  l2 -> code[z, eps]{{ra: {_CONT}; z}} ra.
    mv r1, 2;
    jmp l2aux[z, eps],
  l2aux -> code[z, eps]{{r1: int, ra: {_CONT}; z}} ra.
    ret ra {{r1}},
  l2ret -> code[z, eps]{{r1: int; {_CONT} :: z}} 0.
    sld ra, 0;
    sfree 1;
    ret ra {{r1}}
)
"""),
    ("mv_into_marker_register", "E-SEQ", "marker",
     f"""entry T
(
  mv r1, 0;
  halt[int, *] r1
, where
  lA -> code[z, eps]{{ra: {_CONT}; z}} ra.
    mv ra, 5;
    mv r1, 1;
    ret ra {{r1}}
)
"""),
    ("st_into_box_tuple", "E-SEQ", "immutable",
     """entry T
(
  mv r1, 7;
  salloc 1;
  sst 0, r1;
  balloc r2, 1;
  mv r3, 9;
  st r2[0], r3;
  halt[int, *] r1
)
"""),
    ("protect_hiding_stack_index_marker", "E-WFRET", "protect",
     f"""entry T
(
  mv r1, 0;
  halt[int, *] r1
, where
  lA -> code[z, eps]{{ra: {_CONT}; z}} ra.
    salloc 1;
    sst 0, ra;
    protect ., z2;
    sld ra, 0;
    sfree 1;
    mv r1, 1;
    ret ra {{r1}}
)
"""),
    ("register_file_subtype_violation", "E-SEQ", "regist",
     """entry T
(
  mv r1, 0;
  halt[int, *] r1
, where
  lA -> code[]{r1: int; *} ret(int, *).
    jmp lB,
  lB -> code[]{r1: int, r5: int; *} ret(int, *).
    halt[int, *] r1
)
"""),
    ("import_exposing_marker_slot", "E-SEQ", "import",
     f"""entry T
(
  mv r1, 0;
  halt[int, *] r1
, where
  lA -> code[z, eps]{{ra: {_CONT}; z}} ra.
    salloc 1;
    sst 0, ra;
    import r1, z as z2, int TF{{ 3 }};
    sld ra, 1;
    mv r1, 1;
    ret ra {{r1}}
)
"""),
    ("sfree_past_marker", "E-SEQ", "sfree",
     f"""entry T
(
  mv r1, 0;
  halt[int, *] r1
, where
  lA -> code[z, eps]{{ra: {_CONT}; z}} ra.
    salloc 1;
    sst 0, ra;
    sfree 1;
    mv r1, 1;
    ret ra {{r1}}
)
"""),
    ("uninstantiated_jump_target", "E-SEQ", "instantiat",
     """entry T
(
  mv r1, 0;
  halt[int, *] r1
, where
  lA -> code[]{r1: int; *} ret(int, *).
    jmp lB,
  lB -> code[z]{r1: int; z} ret(int, z).
    halt[int, z] r1
)
"""),
    # Extra rejections beyond the required twelve.
    ("sst_overwriting_marker_slot", "E-SEQ", "overwrite",
     f"""entry T
(
  mv r1, 0;
  halt[int, *] r1
, where
  lA -> code[z, eps]{{r1: int, ra: {_CONT}; z}} ra.
    salloc 1;
    sst 0, ra;
    sst 0, r1;
    sld ra, 0;
    sfree 1;
    ret ra {{r1}}
)
"""),
    ("unbound_source_variable", "E-EXPR", "unbound",
     "lam (x: int). y\n"),
    ("if0_branch_type_mismatch", "E-EXPR", "",
     "lam (x: int). if0 x 1 ()\n"),
    ("application_arity_mismatch", "E-EXPR", "",
     "(lam (x: int, y: int). x)(1)\n"),
    ("boundary_halt_type_mismatch", "E-SEQ", "",
     """FT[int](
  mv r1, ();
  halt[unit, *] r1
)
"""),
    ("duplicate_heap_labels", "E-HEAP", "",
     """entry T
(
  mv r1, 0;
  halt[int, *] r1
, where
  lA -> code[]{r1: int; *} ret(int, *).
    halt[int, *] r1,
  lA -> code[]{r1: int; *} ret(int, *).
    halt[int, *] r1
)
"""),
    ("dangling_heap_label", "E-VAL", "label",
     """entry T
(
  jmp lmissing
)
"""),
    # A halting position infers its marker from the first terminator or
    # branch that names one; each of these fails on that path.
    ("ret_at_halting_position", "E-SEQ", "unresolved",
     """entry T
(
  mv r1, 0;
  ret ra {r1}
)
"""),
    ("boundary_jump_halts_at_wrong_type", "E-SEQ", "halts at",
     """FT[int](
  mv r1, 0;
  jmp lA
, where
  lA -> code[]{r1: int; *} ret(unit, *).
    mv r1, ();
    halt[unit, *] r1
)
"""),
    ("branch_adopting_stack_index_marker", "E-SEQ", "cannot be adopted",
     """entry T
(
  mv r1, 0;
  mv r2, lK;
  salloc 1;
  sst 0, r2;
  bnz r1, lA;
  sfree 1;
  halt[int, *] r1
, where
  lK -> code[]{r1: int; *} ret(int, *).
    halt[int, *] r1,
  lA -> code[]{r1: int; box code[]{r1: int; *} ret(int, *) :: *} 0.
    sld ra, 0;
    sfree 1;
    ret ra {r1}
)
"""),
    ("call_returning_stack_index_at_halt", "E-SEQ", "halting marker",
     f"""entry T
(
  mv ra, l1ret;
  call l1 {{*, 0}}
, where
  l1 -> code[z, eps]{{ra: {_CONT}; z}} ra.
    mv r1, 2;
    ret ra {{r1}},
  l1ret -> code[]{{r1: int; *}} ret(int, *).
    halt[int, *] r1
)
"""),
    ("boundary_call_returns_wrong_type", "E-SEQ", "boundary expects",
     f"""FT[unit](
  mv ra, l1ret;
  call l1 {{*, ret(int, *)}}
, where
  l1 -> code[z, eps]{{ra: {_CONT}; z}} ra.
    salloc 1;
    sst 0, ra;
    mv ra, l2ret[z, eps];
    call l2 {{{_CONT} :: z, 0}},
  l1ret -> code[]{{r1: int; *}} ret(int, *).
    halt[int, *] r1,
  l2 -> code[z, eps]{{ra: {_CONT}; z}} ra.
    mv r1, 2;
    jmp l2aux[z, eps],
  l2aux -> code[z, eps]{{r1: int, ra: {_CONT}; z}} ra.
    ret ra {{r1}},
  l2ret -> code[z, eps]{{r1: int; {_CONT} :: z}} 0.
    sld ra, 0;
    sfree 1;
    ret ra {{r1}}
)
"""),
    ("halt_disagreeing_with_branch_marker", "E-SEQ", "halting marker",
     """entry T
(
  mv r1, 0;
  mv r2, ();
  bnz r1, lA;
  halt[unit, *] r2
, where
  lA -> code[]{r1: int; *} ret(int, *).
    halt[int, *] r1
)
"""),
    ("jump_disagreeing_with_branch_marker", "E-SEQ", "expects marker",
     """entry T
(
  mv r1, 0;
  bnz r1, lA;
  jmp lB
, where
  lA -> code[]{r1: int; *} ret(int, *).
    halt[int, *] r1,
  lB -> code[]{r1: int; *} ret(unit, *).
    mv r1, ();
    halt[unit, *] r1
)
"""),
    # One per rule of F expressions, T words and markers that no program
    # above breaks.
    ("arith_left_operand_not_int", "E-EXPR", "arithmetic on a non-integer",
     "() + 1\n"),
    ("if0_condition_not_int", "E-EXPR", "condition must be an integer",
     "if0 () 1 2\n"),
    ("if0_branches_leave_different_stacks", "E-EXPR", "on the stack",
     """if0 0
  FT[int](
    mv r1, 7;
    salloc 1;
    sst 0, r1;
    halt[int, int :: *] r1
  )
  1
"""),
    ("stack_lambda_body_leaves_wrong_stack", "E-EXPR", "declared stack",
     "lam [. => int :: .](). 1\n"),
    ("apply_an_integer", "E-EXPR", "application of a non-function",
     "1(2)\n"),
    ("argument_of_wrong_type", "E-EXPR", "argument 1 has type unit",
     "(lam (x: int). x)(())\n"),
    ("stack_lambda_applied_to_short_stack", "E-EXPR", "required prefix",
     "(lam [int :: . => int :: .](). 1)()\n"),
    ("stack_lambda_applied_to_wrong_slot", "E-EXPR", "stack slot 0 is unit",
     """FT[int](
  mv r1, ();
  salloc 1;
  sst 0, r1;
  mv r1, 0;
  halt[int, unit :: *] r1
);
(lam [int :: . => int :: .](). 1)()
"""),
    ("project_from_integer", "E-EXPR", "projection from a non-tuple",
     "pi.0 1\n"),
    ("fold_at_non_recursive_type", "E-EXPR", "fold annotation must be recursive",
     "fold int 1\n"),
    ("fold_of_wrong_type", "E-EXPR", "folded value has type unit",
     "fold mu a. int ()\n"),
    ("unfold_an_integer", "E-EXPR", "unfold of a non-recursive value",
     "unfold 1\n"),
    ("word_from_empty_register", "E-VAL", "register r2 holds no value",
     """entry T
(
  mv r1, r2;
  halt[int, *] r1
)
"""),
    ("pack_at_non_existential", "E-VAL", "pack annotation must be existential",
     """entry T
(
  mv r1, pack <int, 1> as int;
  halt[int, *] r1
)
"""),
    ("pack_of_wrong_type", "E-VAL", "does not match",
     """entry T
(
  mv r1, pack <int, ()> as exists a. a;
  halt[int, *] r1
)
"""),
    ("word_fold_at_non_recursive_type", "E-VAL", "fold annotation must be recursive",
     """entry T
(
  mv r1, fold int 1;
  halt[int, *] r1
)
"""),
    ("word_fold_of_wrong_type", "E-VAL", "does not match",
     """entry T
(
  mv r1, fold mu a. int ();
  halt[int, *] r1
)
"""),
    ("instantiate_monomorphic_code", "E-VAL", "non-polymorphic",
     """entry T
(
  mv r1, 0;
  halt[int, *] r1
, where
  lA -> code[]{r1: int; *} ret(int, *).
    mv r2, lA[int];
    halt[int, *] r1
)
"""),
    ("instantiate_stack_binder_with_type", "E-VAL", "kind mismatch",
     """entry T
(
  mv r1, 0;
  halt[int, *] r1
, where
  lA -> code[z]{r1: int; z} ret(int, z).
    mv r2, lA[int];
    halt[int, z] r1
)
"""),
    ("instruction_under_marker_variable", "E-WFRET", "reaches an instruction",
     """entry T
(
  mv r1, 0;
  halt[int, *] r1
, where
  lA -> code[eps]{r1: int; *} eps.
    mv r1, 1;
    halt[int, *] r1
)
"""),
)

# Benign edits: still typecheck, still run without getting stuck.
ACCEPTED = (
    ("call_to_call_different_constant",
     """entry T
(
  mv ra, l1ret;
  call l1 {*, ret(int, *)}
, where
  l1 -> code[z, eps]{ra: box code[]{r1: int; z} eps; z} ra.
    salloc 1;
    sst 0, ra;
    mv ra, l2ret[z, eps];
    call l2 {box code[]{r1: int; z} eps :: z, 0},
  l1ret -> code[]{r1: int; *} ret(int, *).
    halt[int, *] r1,
  l2 -> code[z, eps]{ra: box code[]{r1: int; z} eps; z} ra.
    mv r1, 3;
    jmp l2aux[z, eps],
  l2aux -> code[z, eps]{r1: int, ra: box code[]{r1: int; z} eps; z} ra.
    ret ra {r1},
  l2ret -> code[z, eps]{r1: int; box code[]{r1: int; z} eps :: z} 0.
    sld ra, 0;
    sfree 1;
    ret ra {r1}
)
"""),
    ("import_different_sum",
     """FT[int](
  import r1, * as z, int TF{ 2 + 3 };
  halt[int, *] r1
)
"""),
    ("scratch_register_shuffle",
     """entry T
(
  mv r2, 20;
  mv r3, 22;
  add r1, r2, r3;
  mv r4, r1;
  mv r1, r4;
  halt[int, *] r1
)
"""),
    ("stack_spill_and_reload",
     """entry T
(
  mv r1, 6;
  salloc 2;
  sst 0, r1;
  sst 1, r1;
  sld r2, 1;
  sfree 2;
  mul r1, r2, 7;
  halt[int, *] r1
)
"""),
    ("boundary_halt_agreeing_with_branch_marker",
     """FT[int](
  mv r1, 0;
  bnz r1, lA;
  mv r1, 7;
  halt[int, *] r1
, where
  lA -> code[]{r1: int; *} ret(int, *).
    halt[int, *] r1
)
"""),
    # Operands that read a register under an instantiation, a pack or a
    # fold; OPERAND_VALUES gives the value each halts with.
    ("jmp_through_instantiated_register",
     f"""entry T
(
  mv r1, 5;
  mv r3, lk;
  jmp r3[int]
, where
  lk -> {_POLY}.
    halt[int, *] r1
)
"""),
    ("mv_of_instantiated_register",
     f"""entry T
(
  mv r1, 5;
  mv r3, lk;
  mv r4, r3[int];
  jmp r4
, where
  lk -> {_POLY}.
    halt[int, *] r1
)
"""),
    ("bnz_through_instantiated_register",
     f"""entry T
(
  mv r1, 5;
  mv r3, lk;
  bnz r1, r3[int];
  halt[int, *] r1
, where
  lk -> {_POLY}.
    add r1, r1, 1;
    halt[int, *] r1
)
"""),
    ("pack_of_register",
     """entry T
(
  mv r1, 5;
  mv r2, pack <int, r1> as exists a. int;
  unpack <b, r3> r2;
  add r4, r3, 1;
  halt[int, *] r4
)
"""),
    ("fold_of_register",
     """entry T
(
  mv r1, 5;
  mv r2, fold (mu a. int) r1;
  mv r1, 9;
  unfold r3, r2;
  halt[int, *] r3
)
"""),
    # One jmp r3[int] node is reached twice, with r3 naming another block
    # each time: a cache keyed by the node would jump to la again.
    ("jmp_through_instantiated_register_twice",
     f"""entry T
(
  mv r1, 0;
  mv r3, la;
  jmp lj
, where
  lj -> code[]{{r1: int, r3: box {_POLY}; *}} ret(int, *).
    jmp r3[int],
  la -> {_POLY}.
    mv r3, lb;
    add r1, r1, 1;
    jmp lj,
  lb -> {_POLY}.
    add r1, r1, 10;
    halt[int, *] r1
)
"""),
)

OPERAND_VALUES = {
    "jmp_through_instantiated_register": 5,
    "mv_of_instantiated_register": 5,
    "bnz_through_instantiated_register": 6,
    "pack_of_register": 6,
    "fold_of_register": 5,
    "jmp_through_instantiated_register_twice": 11,
}
