"""The lexer against a reference: the character loop that lexed ftal
before the single regular expression.  It steps one character at a time
and tracks line and column as it goes.  Both must give the same tokens,
positions and errors, apart from two differences the regular expression
makes on purpose:

  - an INT is a run of decimal digits, which is what int() reads; the loop
    also took '²' and '①' (digits to str.isdigit) and left int() to fail;
  - the loop did not count a comment's characters in the column, so after
    a comment on the last line its EOF column ran short of the offset.

The loop lives here only, as a reference for tests."""

import string
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mutations
from conftest import ALL_FTAL, corpus_text
from ftal import parser, pretty
from ftal.parser import KEYWORDS, PUNCT, ParseError


class LoopToken(NamedTuple):
    kind: str
    text: str
    offset: int
    line: int
    col: int


def loop_tokens(src: str):
    """The tokens of src, one at a time, ending in EOF; raises ParseError
    at a character that starts no token."""
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if src.startswith("--", i):
            while i < n and src[i] != "\n":
                i += 1
            continue
        start, sl, sc = i, line, col
        if c.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            yield LoopToken("INT", src[i:j], start, sl, sc)
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] in "_'#"):
                j += 1
            text = src[i:j]
            yield LoopToken(text if text in KEYWORDS else "IDENT", text, start, sl, sc)
            col += j - i
            i = j
            continue
        for p in PUNCT:
            if src.startswith(p, i):
                yield LoopToken(p, p, start, sl, sc)
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", start, sl, sc)
    yield LoopToken("EOF", "", n, line, col)


def _reads_as_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _error_fields(e: ParseError) -> tuple:
    return e.message, e.offset, e.line, e.col, e.expected


def expected_lexing(src: str):
    """The loop's tokens, or the ParseError the lexer must raise."""
    toks = []
    try:
        for t in loop_tokens(src):
            if t.kind == "INT" and not _reads_as_int(t.text):
                k = next(k for k, c in enumerate(t.text) if not c.isdecimal())
                return ParseError(f"unexpected character {t.text[k]!r}",
                                  t.offset + k, t.line, t.col + k)
            toks.append(t)
    except ParseError as e:
        return e
    return toks


def assert_lexes_as_the_loop(src: str):
    want = expected_lexing(src)
    if isinstance(want, ParseError):
        with pytest.raises(ParseError) as exc:
            parser.lex(src)
        assert _error_fields(exc.value) == _error_fields(want)
        return
    got = parser.lex(src)
    assert [tuple(t) for t in got] == [t[:3] for t in want]
    last_line = src[src.rfind("\n") + 1:]
    for t, w in zip(got, want):
        where = ParseError.at(src, t.offset, "")
        if t.kind == "EOF" and "--" in last_line:
            assert where.line == w.line and where.col >= w.col
        else:
            assert (where.line, where.col) == (w.line, w.col)


ALPHABET = (
    tuple(string.ascii_letters + string.digits + "_'#")
    + PUNCT + ("--",)
    + (" ", "\t", "\r", "\n")
    + ("λ", "é", "٣", "²", "①", "½", "Ⅻ", "@", "$")
)


@settings(max_examples=1000)
@given(st.lists(st.sampled_from(ALPHABET), max_size=30).map("".join))
def test_lexer_agrees_with_the_character_loop(src):
    assert_lexes_as_the_loop(src)


@pytest.mark.parametrize("name", ALL_FTAL)
def test_corpus_and_its_printed_form_lex_as_the_loop(name):
    src = corpus_text(name)
    assert_lexes_as_the_loop(src)
    assert_lexes_as_the_loop(pretty.program(parser.parse_program(src)))


@pytest.mark.parametrize(
    "src", [m[-1] for m in mutations.REJECTED + mutations.ACCEPTED],
    ids=[m[0] for m in mutations.REJECTED + mutations.ACCEPTED])
def test_mutation_sources_lex_as_the_loop(src):
    assert_lexes_as_the_loop(src)


@pytest.mark.parametrize("src,line,col", [
    ("1 + -- c", 1, 9),
    ("1 +\n  -- c", 2, 7),
    ("1 + -- c\n", 2, 1),
])
def test_eof_column_counts_a_trailing_comment(src, line, col):
    eof = parser.lex(src)[-1]
    assert eof.kind == "EOF" and eof.offset == len(src)
    with pytest.raises(ParseError) as exc:
        parser.parse_program(src)
    assert (exc.value.line, exc.value.col) == (line, col)
