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

import functools
import importlib.util
import pathlib
import random
import string
import sys
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
    assert got == [t[:2] for t in want]
    offsets = [parser.token_offset(src, i) for i in range(len(got))]
    assert offsets == [t.offset for t in want]
    last_line = src[src.rfind("\n") + 1:]
    for (kind, _), offset, w in zip(got, offsets, want):
        where = ParseError.at(src, offset, "")
        if kind == "EOF" and "--" in last_line:
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
    toks = parser.lex(src)
    assert toks[-1] == ("EOF", "")
    assert parser.token_offset(src, len(toks) - 1) == len(src)
    with pytest.raises(ParseError) as exc:
        parser.parse_program(src)
    assert (exc.value.line, exc.value.col) == (line, col)


@functools.cache
def frontend_text(seed: int) -> str:
    """A program of the size perfbench's frontend workload parses, about
    6.7k tokens: its generator at the full sizes, read from its file."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench/workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    size = workloads.SIZES["full"]
    text, _ = workloads.frontend_program(
        random.Random(f"frontend:{seed}"), size["frontend_blocks"],
        size["frontend_block_len"], size["frontend_lets"])
    return text


def test_a_successful_parse_works_out_no_offset(monkeypatch):
    def no_offset(src, index):
        raise AssertionError("an offset was worked out")

    monkeypatch.setattr(parser, "token_offset", no_offset)
    for src in [*map(corpus_text, ALL_FTAL), frontend_text(1)]:
        printed = pretty.program(parser.parse_program(src))
        assert pretty.program(parser.parse_program(printed)) == printed
    # The patch is in force where errors are raised.
    with pytest.raises(AssertionError, match="an offset"):
        parser.parse_program("1 +")
    with pytest.raises(AssertionError, match="an offset"):
        parser.lex("1 @")


@pytest.mark.parametrize("where", ["start", "middle", "end"])
def test_an_unexpected_character_in_a_large_program(where):
    src = frontend_text(1)
    assert len(parser.lex(src)) > 6000
    at = {"start": 0, "middle": len(src) // 2, "end": len(src)}[where]
    src = src[:at] + "@" + src[at:]
    want = expected_lexing(src)
    assert isinstance(want, ParseError) and want.offset == at
    for read in (parser.lex, parser.parse_program):
        with pytest.raises(ParseError) as exc:
            read(src)
        e = exc.value
        assert (e.message, e.offset, e.line, e.col) == (
            want.message, want.offset, want.line, want.col)
