"""The concrete syntax tables: every instruction and terminator of T,
every type and return marker, and every term but an instantiation has
one template, which the printer fills in and the parser reads."""

import dataclasses

import pytest
from hypothesis import given, settings

from conftest import words
from ftal import machine, parser, pretty
from ftal import syntax as S
from ftal.parser import ParseError
from ftal.typecheck import check_program

TERMINATORS = (S.Jmp, S.Call, S.Ret, S.Halt)


def read(text: str, cls):
    """The instruction or terminator of class cls that text spells."""
    if issubclass(cls, S.Instr):
        return parser.parse_component(f"({text}; halt[int, *] r1)").body.head
    return parser.parse_component(f"({text})").body


def test_every_form_has_one_template_over_its_fields():
    forms = (*S.Instr.__subclasses__(), *TERMINATORS)
    assert set(S.T_SYNTAX) == set(forms)
    for cls in forms:
        parts, _ = S.template_parts(S.T_SYNTAX[cls])
        assert [f for _, f in parts] == [f.name for f in dataclasses.fields(cls)], cls


def test_template_literals_are_keywords_and_marks():
    # A literal word that lexed as a name would match any name.
    for cls, template in S.T_SYNTAX.items():
        parts, end = S.template_parts(template)
        for literal in (*(lit for lit, _ in parts), end):
            assert all(kind == text for kind, text in parser.lex(literal)[:-1]), cls
    assert set(S.AOPS) <= parser.KEYWORDS


def test_every_form_the_parser_reads_by_table_starts_with_a_keyword_or_mark():
    # A form is picked by the kind of its first token, and a name's kind
    # is IDENT, so a key that lexed as a name would never be picked.
    for table in (parser._FORMS, parser._TYPES, parser._MARKERS,
                  parser._EXPRS, parser._WORDS):
        assert table and set(table) <= parser.KEYWORDS | set(parser.PUNCT)


L, R = S.Loc("l"), S.Reg("r2")
INSTANCES = (
    S.Aop("add", "r1", "r2", S.IntVal(3)),
    S.Aop("sub", "r3", "ra", R),
    S.Aop("mul", "r7", "r7", S.IntVal(-2)),
    S.Bnz("r1", L),
    S.Bnz("r4", S.Inst(S.Inst(L, S.SVar("z")), S.MEps("eps"))),
    S.Ld("r1", "r2", 0),
    S.Ld("ra", "r7", 12),
    S.St("r1", 0, "r2"),
    S.St("r3", 5, "ra"),
    S.Ralloc("r1", 2),
    S.Ralloc("r6", 0),
    S.Balloc("r1", 3),
    S.Mv("r1", S.UnitVal()),
    S.Mv("r2", S.Pack(S.TyInt(), S.IntVal(1), S.Exists("a", S.TVar("a")))),
    S.Mv("r3", S.Fold(S.Mu("a", S.TyInt()), S.IntVal(2))),
    S.Salloc(0),
    S.Salloc(4),
    S.Sfree(1),
    S.Sld("r1", 0),
    S.Sld("ra", 3),
    S.Sst(0, "r1"),
    S.Sst(2, "ra"),
    S.Unpack("a", "r1", R),
    S.Unpack("b", "r3", L),
    S.UnfoldI("r1", S.Reg("r1")),
    S.Protect((), "z"),
    S.Protect((S.TyInt(), S.TyUnit()), "z1"),
    S.ImportI("r1", S.SNil(), "z", S.TyInt(), S.IntVal(1)),
    S.ImportI("r2", S.SCons(S.TyInt(), S.SVar("z0")), "z1", S.TyUnit(),
              S.Binop("+", S.Var("x"), S.IntVal(2))),
    S.Jmp(L),
    S.Jmp(S.Reg("ra")),
    S.Jmp(S.Inst(L, S.SCons(S.TyInt(), S.SVar("z")))),
    S.Call(L, S.SNil(), S.MIdx(0)),
    S.Call(R, S.SCons(S.TyInt(), S.SVar("z")), S.MEps("eps")),
    S.Ret("ra", "r1"),
    S.Ret("r2", "r3"),
    S.Halt(S.TyInt(), S.SNil(), "r1"),
    S.Halt(S.TyUnit(), S.SCons(S.TyInt(), S.SVar("z")), "r2"),
)


def test_instances_cover_every_form():
    assert {type(x) for x in INSTANCES} == set(S.T_SYNTAX)


@pytest.mark.parametrize("node", INSTANCES, ids=lambda x: type(x).__name__)
def test_each_form_prints_and_reads_back(node):
    text = pretty.instr(node)
    assert read(text, type(node)) == node
    assert pretty.instr(read(text, type(node))) == text



@settings(max_examples=300)
@given(words)
def test_every_word_prints_and_reads_back_in_a_move(word):
    node = S.Mv("r1", word)
    assert read(pretty.instr(node), S.Mv) == node


# A fold of an instantiated label, which F's rule for a fold operand puts
# in parentheses.
FOLDED_INSTANCE = """entry T
(
  mv r1, fold mu a. box code[]{r1: int; *} ret(int, *) l[int];
  mv r1, 3;
  halt[int, *] r1
, where
  l -> code[b]{r1: int; *} ret(int, *).
    halt[int, *] r1
)
"""


def test_a_folded_instance_formats_to_a_fixed_point_that_checks_and_runs():
    prog = parser.parse_program(FOLDED_INSTANCE)
    printed = pretty.program(prog)
    again = parser.parse_program(printed)
    assert again == prog and pretty.program(again) == printed
    tau, sigma = check_program(again)
    assert (pretty.ty(tau), pretty.stk(sigma)) == ("int", "*")
    out = machine.run_program(again, 100)
    assert (out.kind, out.value, out.steps) == ("halted", S.IntVal(3), 3)


# Parse errors of each form, as (text, (message, line, col, expected)),
# recorded from the hand-written reader that the table replaced. Each
# instruction is read as "(\n  <text>;\n  halt[int, *] r1\n)", each
# terminator as "(\n  <text>\n)".
INSTR_ERRORS = (
    ('add r1 r2, 1', ("unexpected 'r2' in arithmetic", 2, 10, (',',))),
    ('add r1, x, 1', ("'x' is not a register", 2, 11, ())),
    ('add 3, r2, 1', ('expected register', 2, 7, ('IDENT',))),
    ('mul r1, r2 1', ("unexpected '1' in arithmetic", 2, 14, (',',))),
    ('sub r1, r2, ,', ('expected an operand', 2, 15, ('operand',))),
    ('bnz r1 l', ("unexpected 'l' in bnz", 2, 10, (',',))),
    ('bnz 1, l', ('expected register', 2, 7, ('IDENT',))),
    ('bnz rx, l', ("'rx' is not a register", 2, 7, ())),
    ('ld r1, r2 0]', ("unexpected '0' in ld", 2, 13, ('[',))),
    ('ld r1, r2[x]', ("unexpected 'x' in tuple index", 2, 13, ('INT',))),
    ('ld r1, r2[0', ("unexpected ';' in ld", 2, 14, (']',))),
    ('ld x, r2[0]', ("'x' is not a register", 2, 6, ())),
    ('ld r1 r2[0]', ("unexpected 'r2' in ld", 2, 9, (',',))),
    ('ld r1, r2[-1]', ("unexpected '-' in tuple index", 2, 13, ('INT',))),
    ('st r1[0] r2', ("unexpected 'r2' in st", 2, 12, (',',))),
    ('st r1[a], r2', ("unexpected 'a' in tuple index", 2, 9, ('INT',))),
    ('st r1 0], r2', ("unexpected '0' in st", 2, 9, ('[',))),
    ('st r1[0], 5', ('expected register', 2, 13, ('IDENT',))),
    ('st r1[0, r2', ("unexpected ',' in st", 2, 10, (']',))),
    ('ralloc r1 2', ("unexpected '2' in ralloc", 2, 13, (',',))),
    ('ralloc r1, x', ("unexpected 'x' in slot count", 2, 14, ('INT',))),
    ('ralloc q, 2', ("'q' is not a register", 2, 10, ())),
    ('balloc r1 2', ("unexpected '2' in balloc", 2, 13, (',',))),
    ('balloc r1, r2', ("unexpected 'r2' in slot count", 2, 14, ('INT',))),
    ('balloc 1, 2', ('expected register', 2, 10, ('IDENT',))),
    ('mv r1 1', ("unexpected '1' in mv", 2, 9, (',',))),
    ('mv 1, 1', ('expected register', 2, 6, ('IDENT',))),
    ('mv rr, 1', ("'rr' is not a register", 2, 6, ())),
    ('salloc x', ("unexpected 'x' in slot count", 2, 10, ('INT',))),
    ('salloc -1', ("unexpected '-' in slot count", 2, 10, ('INT',))),
    ('sfree x', ("unexpected 'x' in slot count", 2, 9, ('INT',))),
    ('sfree r1', ("unexpected 'r1' in slot count", 2, 9, ('INT',))),
    ('sld r1 0', ("unexpected '0' in sld", 2, 10, (',',))),
    ('sld r1, x', ("unexpected 'x' in stack index", 2, 11, ('INT',))),
    ('sld x, 0', ("'x' is not a register", 2, 7, ())),
    ('sst 0 r1', ("unexpected 'r1' in sst", 2, 9, (',',))),
    ('sst x, r1', ("unexpected 'x' in stack index", 2, 7, ('INT',))),
    ('sst 0, 3', ('expected register', 2, 10, ('IDENT',))),
    ('unpack a, r1> l', ("unexpected 'a' in unpack", 2, 10, ('<',))),
    ('unpack <a r1> l', ("unexpected 'r1' in unpack", 2, 13, (',',))),
    ('unpack <a, r1 l', ("unexpected 'l' in unpack", 2, 17, ('>',))),
    ('unpack <a, x> l', ("'x' is not a register", 2, 14, ())),
    ('unpack <3, r1> l', ('expected type variable', 2, 11, ('IDENT',))),
    ('unfold r1 l', ("unexpected 'l' in unfold", 2, 13, (',',))),
    ('unfold x, l', ("'x' is not a register", 2, 10, ())),
    ('unfold r1, ,', ('expected an operand', 2, 14, ('operand',))),
    ('protect int :: . z', ("unexpected 'z' in protect", 2, 20, (',',))),
    ('protect int :: ., y', ("'y' is not a stack variable name", 2, 21, ())),
    ('protect int :: ., 3', ('expected stack variable', 2, 21, ('IDENT',))),
    ('protect int :: z', ("'z' is a stack variable, not a type", 2, 18, ())),
    ('import r1 * as z, int TF{ 1 }', ("unexpected '*' in import", 2, 13, (',',))),
    ('import r1, * z, int TF{ 1 }', ("unexpected 'z' in import", 2, 16, ('as',))),
    ('import r1, * as y, int TF{ 1 }', ("'y' is not a stack variable name", 2, 19, ())),
    ('import r1, * as z int TF{ 1 }', ("unexpected 'int' in import", 2, 21, (',',))),
    ('import r1, * as z, int { 1 }', ("unexpected '{' in import", 2, 26, ('TF',))),
    ('import r1, * as z, int TF{ 1', ('expected an expression', 3, 3, ('expression',))),
    ('import x, * as z, int TF{ 1 }', ("'x' is not a register", 2, 10, ())),
    ('import r1, * as z, int TF 1 }', ("unexpected '1' in import", 2, 29, ('{',))),
    ('import r1, * as 3, int TF{ 1 }', ('expected stack variable', 2, 19, ('IDENT',))),
    ('foo r1', ('expected an instruction', 2, 3, ('instruction',))),
)
TERM_ERRORS = (
    ('jmp', ('expected an operand', 3, 1, ('operand',))),
    ('jmp ,', ('expected an operand', 2, 7, ('operand',))),
    ('call l *, ra}', ("unexpected '*' in call", 2, 10, ('{',))),
    ('call l {* ra}', ("unexpected 'ra' in call", 2, 13, (',',))),
    ('call l {*, ra', ("unexpected ')' in call", 3, 1, ('}',))),
    ('call l {*, x}', ('expected a return marker', 2, 14, ('marker',))),
    ('ret r1 r2}', ("unexpected 'r2' in ret", 2, 10, ('{',))),
    ('ret r1 {r2', ("unexpected ')' in ret", 3, 1, ('}',))),
    ('ret x {r2}', ("'x' is not a register", 2, 7, ())),
    ('ret r1 {5}', ('expected register', 2, 11, ('IDENT',))),
    ('halt int, *] r1', ("unexpected 'int' in halt", 2, 8, ('[',))),
    ('halt[int *] r1', ("unexpected '*' in halt", 2, 12, (',',))),
    ('halt[int, *] x', ("'x' is not a register", 2, 16, ())),
    ('halt[int, * r1', ("unexpected 'r1' in halt", 2, 15, (']',))),
    ('halt[int, *] 1', ('expected register', 2, 16, ('IDENT',))),
    ('ret ret(int, *) r1}', ("unexpected 'r1' in ret", 2, 19, ('{',))),
    ('ret ret(int, *) {x}', ("'x' is not a register", 2, 20, ())),
    ('ret ret(int *) {r1}', ("unexpected '*' in halting marker", 2, 15, (',',))),
)


@pytest.mark.parametrize("text,want", INSTR_ERRORS)
def test_instruction_parse_errors(text, want):
    with pytest.raises(ParseError) as exc:
        parser.parse_component(f"(\n  {text};\n  halt[int, *] r1\n)")
    e = exc.value
    assert (e.message, e.line, e.col, e.expected) == want


@pytest.mark.parametrize("text,want", TERM_ERRORS)
def test_terminator_parse_errors(text, want):
    with pytest.raises(ParseError) as exc:
        parser.parse_component(f"(\n  {text}\n)")
    e = exc.value
    assert (e.message, e.line, e.col, e.expected) == want


# -- types and return markers ------------------------------------------------

TYPE_FORMS = (*S.Ty.__subclasses__(), *S.Mk.__subclasses__())


def test_every_type_and_marker_has_one_template_over_its_fields():
    assert set(S.TY_SYNTAX) == set(TYPE_FORMS)
    for cls in TYPE_FORMS:
        parts, _ = S.template_parts(S.TY_SYNTAX[cls])
        assert [f for _, f in parts] == [f.name for f in dataclasses.fields(cls)], cls


def test_type_template_literals_are_keywords_and_marks():
    for cls, template in S.TY_SYNTAX.items():
        parts, end = S.template_parts(template)
        for literal in (*(lit for lit, _ in parts), end):
            assert all(kind == text for kind, text in parser.lex(literal)[:-1]), cls


# Parse errors of types and markers, as (text, (message, line, col,
# expected)), recorded from the hand-written reader that the table
# replaced. Each is read by parser.parse_type.
TYPE_ERRORS = (
    ('mu a int', ("unexpected 'int' in mu type", 1, 6, ('.',))),
    ('mu 3. int', ('expected type variable', 1, 4, ('IDENT',))),
    ('exists 3. int', ('expected type variable', 1, 8, ('IDENT',))),
    ('exists a int', ("unexpected 'int' in exists type", 1, 10, ('.',))),
    ('ref int', ("unexpected 'int' in tuple type", 1, 5, ('<',))),
    ('ref <int', ("unexpected 'end of input' in tuple type", 1, 9, ('>',))),
    ('box int', ("unexpected 'int' in tuple type", 1, 5, ('<',))),
    ('box code[]{; *}', ('expected a return marker', 1, 16, ('marker',))),
    ('<int unit>', ("unexpected 'unit' in tuple type", 1, 6, ('>',))),
    ('<int,>', ('expected a type', 1, 6, ('type',))),
    ('<int, ret(int, *)>', ('expected a type', 1, 7, ('type',))),
    ('code[z', ("unexpected 'end of input' in code type", 1, 7, (']',))),
    ('code z]{; *} out', ("unexpected 'z' in code type", 1, 6, ('[',))),
    ('code[z,]{; *} out', ('expected binder', 1, 8, ('IDENT',))),
    ('code[]{r9: int; *} ra', ("'r9' is not a register", 1, 8, ())),
    ('code[]{r1 int; *} ra', ("unexpected 'int' in register file entry", 1, 11, (':',))),
    ('code[]{r1: int *} ra', ("unexpected '*' in code type", 1, 16, (';',))),
    ('code[]{r1: z; *} out', ("'z' is a stack variable, not a type", 1, 12, ())),
    ('code[]{; int} out', ("unexpected '}' in stack type", 1, 13, ('::',))),
    ('code[]{; * out', ("unexpected 'out' in code type", 1, 12, ('}',))),
    ('code[]{; *} ret(int *)', ("unexpected '*' in halting marker", 1, 21, (',',))),
    ('code[]{; *} ret int, *)', ("unexpected 'int' in halting marker", 1, 17, ('(',))),
    ('code[]{; *} ret(int, * ra', ("unexpected 'ra' in halting marker", 1, 24, (')',))),
    ('code[]{; *} x', ('expected a return marker', 1, 13, ('marker',))),
    ('code[]{; *}', ('expected a return marker', 1, 12, ('marker',))),
    ('(int, unit)', ('parenthesized type list must be followed by an arrow', 1, 12, ('->',))),
    ('(int', ("unexpected 'end of input' in arrow type", 1, 5, (')',))),
    ('(int)[int => .] -> int', ("unexpected '=>' in stack prefix", 1, 11, ('::',))),
    ('(int)[. => .] int', ("unexpected 'int' in stack arrow", 1, 15, ('->',))),
    ('z', ("'z' is a stack variable, not a type", 1, 1, ())),
    ('eps', ("'eps' is a marker variable, not a type", 1, 1, ())),
    ('ret(int, *)', ('expected a type', 1, 1, ('type',))),
    ('out', ('expected a type', 1, 1, ('type',))),
    ('', ('expected a type', 1, 1, ('type',))),
    ('int int', ("unexpected 'int' in type", 1, 5, ('EOF',))),
    ('(int)[. => . -> int', ("unexpected '->' in stack arrow", 1, 14, (']',))),
    ('(int)[. => .]', ("unexpected 'end of input' in stack arrow", 1, 14, ('->',))),
)
# Heap block headers, each read as
# "(\n  halt[int, *] r1,\n  where\n    l -> <text>.\n      halt[int, *] r1\n)".
HEADER_ERRORS = (
    ('code[]{r9: int; *} ra', ("'r9' is not a register", 4, 17, ())),
    ('code[z{; *} out', ("unexpected '{' in code type", 4, 16, (']',))),
    ('code[]{; *} ret(int *)', ("unexpected '*' in halting marker", 4, 30, (',',))),
    ('code[]{; *} ret(int, *) halt', ("unexpected 'halt' in code block", 4, 34, ('.',))),
    ('code[]{r1: int; *}', ('expected a return marker', 4, 28, ('marker',))),
    ('code[]{; *} <int>', ('expected a return marker', 4, 22, ('marker',))),
    ('code{; *} out', ("unexpected '{' in code type", 4, 14, ('[',))),
    ('5', ('expected a heap value', 4, 10, ('code', 'ref', 'box'))),
)


@pytest.mark.parametrize("text,want", TYPE_ERRORS)
def test_type_parse_errors(text, want):
    with pytest.raises(ParseError) as exc:
        parser.parse_type(text)
    e = exc.value
    assert (e.message, e.line, e.col, e.expected) == want


@pytest.mark.parametrize("text,want", HEADER_ERRORS)
def test_code_block_header_parse_errors(text, want):
    with pytest.raises(ParseError) as exc:
        parser.parse_component(
            f"(\n  halt[int, *] r1,\n  where\n    l -> {text}.\n      halt[int, *] r1\n)")
    e = exc.value
    assert (e.message, e.line, e.col, e.expected) == want


# -- terms ---------------------------------------------------------------------

TERM_FORMS = tuple(cls for cls in S.Tm.__subclasses__() if cls is not S.Inst)


def test_every_term_but_an_instantiation_has_one_template_over_its_fields():
    assert set(S.TM_SYNTAX) == set(TERM_FORMS)
    for cls in TERM_FORMS:
        template = S.TM_SYNTAX[cls]
        parts, _ = S.template_parts(template)
        slots, names = [f for _, f in parts], [f.name for f in dataclasses.fields(cls)]
        assert sorted(slots) == sorted(names), cls
        # The parser builds a keyword-led term from its slots in order; a
        # lambda, read by hand, writes its stack prefixes first.
        if not template.startswith(("{", "(", "lam")):
            assert slots == names, cls


def test_term_template_literals_are_keywords_and_marks():
    for cls, template in S.TM_SYNTAX.items():
        parts, end = S.template_parts(template)
        for literal in (*(lit for lit, _ in parts), end):
            assert all(kind == text for kind, text in parser.lex(literal)[:-1]), cls


# Parse errors of the keyword-led terms, as (source, (message, line, col,
# expected)), recorded from the hand-written reader. Each is read by
# parser.parse_expr.
EXPR_ERRORS = (
    ('if0 1 2', ('expected an expression', 1, 8, ('expression',))),
    ('if0 1 2 +', ('expected an expression', 1, 9, ('expression',))),
    ('unfold', ('expected an expression', 1, 7, ('expression',))),
    ('unfold )', ('expected an expression', 1, 8, ('expression',))),
    ('fold mu a. int', ('expected an expression', 1, 15, ('expression',))),
    ('pi.0', ('expected an expression', 1, 5, ('expression',))),
    ('pi.1 ,', ('expected an expression', 1, 6, ('expression',))),
    ('pi 0 x', ("unexpected '0' in projection", 1, 4, ('.',))),
    ('pi.x y', ("unexpected 'x' in projection", 1, 4, ('INT',))),
    ('pi.-1 x', ("unexpected '-' in projection", 1, 4, ('INT',))),
    ('pi.0.1 x', ('expected an expression', 1, 5, ('expression',))),
    ('let 1 = 2 in 3', ('expected binding name', 1, 5, ('IDENT',))),
    ('let x 2 in 3', ("unexpected '2' in let binding", 1, 7, ('=',))),
    ('let x = 2 3', ("unexpected '3' in let binding", 1, 11, ('in',))),
    ('let x = 2', ("unexpected 'end of input' in let binding", 1, 10, ('in',))),
    ('let x : = 2 in x', ('expected a type', 1, 9, ('type',))),
    ('let x : z = 2 in x', ("'z' is a stack variable, not a type", 1, 9, ())),
    ('let x : int 2 in x', ("unexpected '2' in let binding", 1, 13, ('=',))),
    ('let x = 2 in', ('expected an expression', 1, 13, ('expression',))),
    ('let\n  x = 1\nin\n  y +', ('expected an expression', 4, 6, ('expression',))),
    ('lam x: int). x', ("unexpected 'x' in lambda parameters", 1, 5, ('(',))),
    ('lam (x: int. x', ("unexpected '.' in lambda parameters", 1, 12, (')',))),
    ('lam (x: int) x', ("unexpected 'x' in lambda", 1, 14, ('.',))),
    ('lam (x int). x', ("unexpected 'int' in parameter annotation", 1, 8, (':',))),
    ('lam (1: int). x', ('expected parameter name', 1, 6, ('IDENT',))),
    ('lam (x: int).', ('expected an expression', 1, 14, ('expression',))),
    ('lam [int :: . unit :: .](x: int). x', ("unexpected 'unit' in stack lambda", 1, 15, ('=>',))),
    ('lam [int :: . => unit :: .(x: int). x', ("unexpected '(' in stack lambda", 1, 27, (']',))),
    ('lam [int => .](x: int). x', ("unexpected '=>' in stack prefix", 1, 10, ('::',))),
    ('FT int](halt[int, *] r1)', ("unexpected 'int' in boundary annotation", 1, 4, ('[',))),
    ('FT[int (halt[int, *] r1)', ("unexpected '(' in boundary annotation", 1, 8, (']',))),
    ('FT[int]', ("unexpected 'end of input' in component", 1, 8, ('(',))),
    ('FT[]()', ('expected a type', 1, 4, ('type',))),
    ('FT[int] halt[int, *] r1', ("unexpected 'halt' in component", 1, 9, ('(',))),
    ('fold 3 x', ('expected a type', 1, 6, ('type',))),
    ('fold z x', ("'z' is a stack variable, not a type", 1, 6, ())),
    ('fold\n  (int\n  x', ("unexpected 'x' in arrow type", 3, 3, (')',))),
    # Instantiation arguments, read as a marker, or by the stack reader.
    ('f[]', ('expected a type', 1, 3, ('type',))),
    ('f[-1]', ('expected a type', 1, 3, ('type',))),
    ('f[int ::]', ('expected a type', 1, 9, ('type',))),
    ('f[int :: int]', ("unexpected ']' in stack type", 1, 13, ('::',))),
    ('f[int :: eps]', ("'eps' is a marker variable, not a type", 1, 10, ())),
    ('f[z :: *]', ("unexpected '::' in instantiation", 1, 5, (']',))),
    ('f[int z]', ("unexpected 'z' in instantiation", 1, 7, (']',))),
)

# T words, each read as "FT[int](\n  mv r1, <text>;\n  halt[int, *] r1\n)".
WORD_ERRORS = (
    ('pack int, 1> as exists a. a', ("unexpected 'int' in pack", 2, 15, ('<',))),
    ('pack <int 1> as exists a. a', ("unexpected '1' in pack", 2, 20, (',',))),
    ('pack <int, 1 as exists a. a', ("unexpected 'as' in pack", 2, 23, ('>',))),
    ('pack <int, 1> exists a. a', ("unexpected 'exists' in pack", 2, 24, ('as',))),
    ('pack <int, 1>', ("unexpected ';' in pack", 2, 23, ('as',))),
    ('pack <3, 1> as exists a. a', ('expected a type', 2, 16, ('type',))),
    ('pack <int, ,> as exists a. a', ('expected an operand', 2, 21, ('operand',))),
    ('fold 3 1', ('expected a type', 2, 15, ('type',))),
    ('fold mu a. int', ('expected an operand', 2, 24, ('operand',))),
    ('fold z 1', ("'z' is a stack variable, not a type", 2, 15, ())),
)


@pytest.mark.parametrize("text,want", EXPR_ERRORS)
def test_expression_parse_errors(text, want):
    with pytest.raises(ParseError) as exc:
        parser.parse_expr(text)
    e = exc.value
    assert (e.message, e.line, e.col, e.expected) == want


@pytest.mark.parametrize("text,want", WORD_ERRORS)
def test_word_parse_errors(text, want):
    with pytest.raises(ParseError) as exc:
        parser.parse_expr(f"FT[int](\n  mv r1, {text};\n  halt[int, *] r1\n)")
    e = exc.value
    assert (e.message, e.line, e.col, e.expected) == want
