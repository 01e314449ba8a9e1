"""Parser and pretty-printer: concrete forms and round trips."""

import pytest
from hypothesis import given, settings

from conftest import (ALL_FTAL, corpus_text, source_terms, source_types,
                      target_types)
from ftal import parser, pretty
from ftal import syntax as S
from ftal.parser import ParseError


@pytest.mark.parametrize("name", ALL_FTAL)
def test_corpus_round_trips_alpha_identically(name):
    prog = parser.parse_program(corpus_text(name))
    again = parser.parse_program(pretty.program(prog))
    assert S.alpha_equal(prog.main, again.main)
    assert prog.entry == again.entry


def test_entry_header_defaults_to_source_language():
    prog = parser.parse_program("1 + 1")
    assert prog.entry == "F"
    prog = parser.parse_program("entry T\n(\n  mv r1, 1;\n"
                                "  halt[int, *] r1\n)")
    assert prog.entry == "T"


def test_instantiation_spellings_agree():
    a = parser.parse_expr("FT[int](jmp l[z, eps])")
    b = parser.parse_expr("FT[int](jmp l[z][eps])")
    assert S.alpha_equal(a, b)


def test_one_tuple_prints_with_trailing_comma():
    e = S.TupleVal((S.IntVal(1),))
    text = pretty.tm(e)
    assert text == "(1,)"
    assert S.alpha_equal(parser.parse_expr(text), e)


def test_ret_with_halting_marker_normalizes_to_halt():
    comp = parser.parse_component("(\n  mv r1, 1;\n  ret ret(int, *) {r1}\n)")
    last = comp.body
    while isinstance(last, S.Seq):
        last = last.tail
    assert isinstance(last, S.Halt)


def test_negative_literals_parse():
    e = parser.parse_expr("-3")
    assert e == S.IntVal(-3)


def test_decimal_digits_of_any_script_read_as_integers():
    assert parser.parse_expr("٣") == S.IntVal(3)  # ARABIC-INDIC DIGIT THREE


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parser.parse_expr("lam (x int). x")
    assert "1:" in str(exc.value)


def test_trailing_input_is_rejected():
    with pytest.raises(ParseError):
        parser.parse_program("1 + 1 extra")


def test_unknown_register_is_rejected():
    with pytest.raises(ParseError):
        parser.parse_component("(\n  mv r9, 1;\n  halt[int, *] r9\n)")


def test_comments_are_ignored():
    prog = parser.parse_program("-- a comment line\n1 + 1 -- trailing\n")
    assert S.alpha_equal(prog.main,
                         S.Binop("+", S.IntVal(1), S.IntVal(1)))


def test_stack_lambda_annotation_round_trips():
    src = "lam [int :: . => unit :: .](x: int). x"
    e = parser.parse_expr(src)
    assert isinstance(e, S.Lam) and e.stack is not None
    phi_in, phi_out = e.stack
    assert phi_in == (S.TyInt(),) and phi_out == (S.TyUnit(),)
    assert S.alpha_equal(parser.parse_expr(pretty.tm(e)), e)


def test_code_type_round_trips():
    src = ("box code[z, eps]{r1: int, ra: box code[]{r1: int; z} eps; "
           "int :: z} ra")
    t = parser.parse_type(src)
    assert S.alpha_equal(parser.parse_type(pretty.ty(t)), t)


@settings(max_examples=60)
@given(source_types)
def test_types_round_trip_through_pretty(t):
    assert S.alpha_equal(parser.parse_type(pretty.ty(t)), t)


@settings(max_examples=100)
@given(target_types)
def test_target_types_round_trip_through_pretty(t):
    assert S.alpha_equal(parser.parse_type(pretty.ty(t)), t)


# Derandomized, and enough examples that every templated form is drawn:
# annotated lets, stack lambdas, boundaries, and pack and fold words.
@settings(max_examples=100)
@given(source_terms)
def test_terms_round_trip_through_pretty(e):
    assert S.alpha_equal(parser.parse_expr(pretty.tm(e)), e)


# An instantiation argument is a return marker, or else a stack or a
# type, which the stack reader tells apart by the "::" after a type.
OMEGAS = (
    ("int", S.TyInt()),
    ("(int) -> int", S.Arrow((S.TyInt(),), S.TyInt())),
    ("z", S.SVar("z")),
    ("*", S.SNil()),
    ("int :: unit :: z", S.stack_of([S.TyInt(), S.TyUnit()], S.SVar("z"))),
    ("eps", S.MEps("eps")),
    ("0", S.MIdx(0)),
    ("ra", S.MReg("ra")),
    ("ret(int, *)", S.MHalt(S.TyInt(), S.SNil())),
    ("out", S.MOut()),
)


@pytest.mark.parametrize("text,omega", OMEGAS, ids=[o[0] for o in OMEGAS])
def test_instantiation_arguments(text, omega):
    assert parser.parse_expr(f"f[{text}]") == S.Inst(S.Var("f"), omega)


def test_a_lambda_is_an_arithmetic_operand():
    e = parser.parse_expr("1 + lam (x: int). x")
    assert e == S.Binop("+", S.IntVal(1), S.Lam((("x", S.TyInt()),), S.Var("x")))
    assert pretty.tm(e) == "(1 + (lam (x: int). x))"
    assert parser.parse_expr(pretty.tm(e)) == e


def test_entry_names_one_of_the_two_languages():
    with pytest.raises(ParseError) as exc:
        parser.parse_program("entry G\n1")
    e = exc.value
    assert (e.message, e.line, e.col, e.expected) == ("entry must be F or T", 1, 7, ())
