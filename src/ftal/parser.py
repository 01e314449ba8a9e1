"""Concrete syntax reader.

The lexer is one regular expression, scanned once over the source. A token
is a pair of its kind and its text. Where a token stands is worked out
only when a ParseError is raised: its offset, counted in characters (not
bytes) from the start of the source, by scanning again up to the token,
and its line and column from that offset. The parser is plain recursive
descent; each syntactic category is predicted by its next token, so it
never backtracks. T's instructions and terminators are read from their
templates in ``syntax.T_SYNTAX``, picked by the mnemonic that starts them;
only the ``ret ret(t, s) {r}`` spelling of ``halt`` is read by hand. Types
and return markers are read from their templates in ``syntax.TY_SYNTAX``
in the same way, picked by the keyword or mark that starts them (``unit``,
``int``, ``mu``, ``exists``, ``ref``, ``box``, ``<``, ``code``, and the
markers ``ret`` and ``out``, which have a table of their own); type
variables, arrow and parenthesised types, and register, index and
``eps`` markers are read by hand. Terms are read from their templates in
``syntax.TM_SYNTAX`` when a keyword starts them: F's ``let``, ``if0``,
``pi``, ``fold``, ``unfold`` and ``FT``, and T's words ``pack`` and
``fold``. Lambdas, whose messages name three contexts (``stack lambda``,
``lambda parameters`` and ``lambda``), and the terms that start with a
name, a literal or ``(`` (variables, registers, labels, integers, unit,
binops, applications, instantiations, tuples and sequences) are read by
hand. One method, ``form``, reads every template, one, ``items``, every
comma-separated list, one, ``stack``, every stack (an instantiation
argument's too), and one, ``prefixes``, the stack prefixes
``[phi => phi]`` of stack lambdas and arrows. A sequence
``e1; ...; en`` is read along its spine with a loop.

Conventions baked into the grammar:
  - names starting with ``z`` are stack variables, ``eps`` marker variables;
  - ``*`` is the empty stack, ``.`` terminates a stack prefix;
  - projection ``pi.i`` is 0-based;
  - newlines are whitespace and ``;`` separators are optional;
  - comments run from ``--`` to end of line;
  - a bare identifier in an instruction operand is a heap label unless it is
    a register name;
  - a missing ``entry`` header means the file is an F program.
"""

from __future__ import annotations

import re
from itertools import islice

from . import syntax as S

_NAME = r"[^\W\d][\w'#]*"


def _literal_words(template: str) -> list:
    """The names a template writes between its slots."""
    parts, end = S.template_parts(template)
    return re.findall(_NAME, " ".join([*(literal for literal, _ in parts), end]))


# The words of the templates of T, of types and of terms, the arithmetic
# mnemonics, and the two words read by hand: "entry" starts a program and
# "where" a component's heap.  None of them lexes as a name.
KEYWORDS = {*S.AOPS, "entry", "where", *(
    word for table in (S.T_SYNTAX, S.TY_SYNTAX, S.TM_SYNTAX)
    for template in table.values() for word in _literal_words(template))}

# Longest first: the pattern takes the first alternative that matches.
PUNCT = (
    "::", "->", "=>", "(", ")", "[", "]", "{", "}", "<", ">", ",", ";", ":",
    ".", "*", "+", "-", "=",
)

# Skip whitespace and comments, then take one token: a run of decimal
# digits (what int() reads), a name, a punctuation mark, or any other
# character, which is an error. The name alternative also starts at
# characters such as '²' that are alphanumeric but not alphabetic; lex
# rejects those.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:--[^\n]*[ \t\r\n]*)*"
    r"(\d+|" + _NAME + "|" + "|".join(map(re.escape, PUNCT)) + r"|.)?",
    re.DOTALL,
)

# The kind of each keyword and punctuation mark is its own text.
_KINDS = {text: text for text in (*KEYWORDS, *PUNCT)}


class ParseError(Exception):
    def __init__(self, message: str, offset: int, line: int, col: int, expected: tuple = ()):
        super().__init__(message)
        self.message = message
        self.offset = offset
        self.line = line
        self.col = col
        self.expected = tuple(expected)

    @classmethod
    def at(cls, src: str, offset: int, message: str, expected: tuple = ()) -> ParseError:
        """The error at a character offset into src, with its 1-based
        line and column."""
        line = src.count("\n", 0, offset) + 1
        col = offset - src.rfind("\n", 0, offset)
        return cls(message, offset, line, col, expected)

    def display(self) -> str:
        want = f" (expected {', '.join(self.expected)})" if self.expected else ""
        return f"{self.line}:{self.col}: {self.message}{want}"

    def __str__(self) -> str:
        return self.display()


def lex(src: str) -> list[tuple[str, str]]:
    """The (kind, text) pairs of the tokens of src, ending in
    ("EOF", "")."""
    texts = _TOKEN.findall(src)
    # The group matches nothing only where whitespace and comments run to
    # the end of src, which leaves one or two empty texts there.
    while texts and not texts[-1]:
        texts.pop()
    toks = []
    append = toks.append
    kinds = _KINDS.get
    for text in texts:
        kind = kinds(text)
        if kind is None:
            c = text[0]
            if c.isdecimal():
                kind = "INT"
            elif c.isalpha() or c == "_":
                kind = "IDENT"
            else:
                raise ParseError.at(src, token_offset(src, len(toks)),
                                    f"unexpected character {c!r}")
        append((kind, text))
    append(("EOF", ""))
    return toks


def token_offset(src: str, index: int) -> int:
    """The character offset of token number index of src, counted as lex
    counts them; EOF's is len(src)."""
    m = next(islice(_TOKEN.finditer(src), index, None), None)
    return len(src) if m is None or m[1] is None else m.start(1)


class Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = lex(src)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> tuple[str, str]:
        return self.toks[self.pos]

    def next(self) -> str:
        """The next token's text; the token is consumed unless it is EOF."""
        kind, text = self.toks[self.pos]
        if kind != "EOF":
            self.pos += 1
        return text

    def at(self, *kinds: str) -> bool:
        return self.toks[self.pos][0] in kinds

    def accept(self, kind: str) -> bool:
        if self.toks[self.pos][0] == kind:
            self.next()
            return True
        return False

    def expect(self, kind: str, what: str = "") -> str:
        got, text = self.toks[self.pos]
        if got != kind:
            text = text or "end of input"
            self.fail(f"unexpected {text!r}" + (f" in {what}" if what else ""),
                      expected=(kind,))
        return self.next()

    def fail(self, message: str, expected: tuple = (), at: int | None = None):
        """Raise a ParseError at token number at, or at the next token."""
        offset = token_offset(self.src, self.pos if at is None else at)
        raise ParseError.at(self.src, offset, message, expected)

    def ident(self, what: str) -> str:
        if self.toks[self.pos][0] != "IDENT":
            self.fail(f"expected {what}", expected=("IDENT",))
        return self.next()

    # -- lists -------------------------------------------------------------

    def items(self, read, close: str, empty: bool = True, trailing: bool = False) -> tuple:
        """Items read by read and separated by commas, up to the token
        close, which is left for the caller to expect. The list may be
        empty unless empty is false, and may end in a comma if trailing
        is true."""
        items = []
        if not (empty and self.at(close)):
            items.append(read(self))
            while self.accept(",") and not (trailing and self.at(close)):
                items.append(read(self))
        return tuple(items)

    # -- types -------------------------------------------------------------

    def type_(self) -> S.Ty:
        at = self.pos
        kind = self.toks[at][0]
        form = _TYPES.get(kind)
        if form is not None:
            return self.form(*form)
        if kind == "(":
            return self.arrow_or_paren_type()
        if kind == "IDENT":
            name = self.next()
            if S.kind_of_name(name) != S.KIND_TYPE:
                self.fail(
                    f"{name!r} is a {S.kind_of_name(name)} variable, not a type",
                    at=at,
                )
            return S.TVar(name)
        self.fail("expected a type", expected=("type",))

    def chi_entry(self) -> tuple[str, S.Ty]:
        name = self.register()
        self.expect(":", "register file entry")
        return (name, self.type_())

    def arrow_or_paren_type(self) -> S.Ty:
        self.expect("(")
        params = self.items(Parser.type_, ")")
        self.expect(")", "arrow type")
        if self.accept("["):
            phi_in, phi_out = self.prefixes("stack arrow")
            self.expect("->", "stack arrow")
            return S.StackArrow(params, phi_in, phi_out, self.type_())
        if self.accept("->"):
            return S.Arrow(params, self.type_())
        if len(params) == 1:
            return params[0]
        self.fail("parenthesized type list must be followed by an arrow", expected=("->",))

    def phi(self) -> tuple[S.Ty, ...]:
        items = []
        while True:
            if self.accept("."):
                return tuple(items)
            items.append(self.type_())
            self.expect("::", "stack prefix")

    def prefixes(self, what: str) -> tuple:
        """The ``phi => phi ]`` of a stack-prefix pair, named what."""
        phi_in = self.phi()
        self.expect("=>", what)
        phi_out = self.phi()
        self.expect("]", what)
        return phi_in, phi_out

    def stack(self, lone: bool = False) -> S.Node:
        """A stack type; if lone, a type with no ``::`` after it."""
        heads = []
        while True:
            kind, text = self.peek()
            if kind == "*":
                self.next()
                return S.stack_of(heads, S.SNil())
            if kind == "IDENT" and S.kind_of_name(text) == S.KIND_STACK:
                self.next()
                return S.stack_of(heads, S.SVar(text))
            heads.append(self.type_())
            if lone and len(heads) == 1 and not self.at("::"):
                return heads[0]
            self.expect("::", "stack type")

    # -- markers and instantiation arguments -------------------------------

    def marker(self) -> S.Mk:
        kind, text = self.peek()
        form = _MARKERS.get(kind)
        if form is not None:
            return self.form(*form)
        if kind == "INT":
            return S.MIdx(self.int_lit("return marker"))
        if kind == "IDENT":
            if S.is_register(text):
                self.next()
                return S.MReg(text)
            if S.kind_of_name(text) == S.KIND_MARKER:
                self.next()
                return S.MEps(text)
        self.fail("expected a return marker", expected=("marker",))

    def inst(self, base: S.Tm) -> S.Tm:
        """base applied to the arguments of one instantiation [w, ...]."""
        self.expect("[")
        for w in self.items(Parser.omega, "]", empty=False):
            base = S.Inst(base, w)
        self.expect("]", "instantiation")
        return base

    def omega(self) -> S.Node:
        """An instantiation argument: a marker, a stack or a type."""
        kind, text = self.peek()
        if kind == "INT" or kind in _MARKERS or (kind == "IDENT" and (
                S.is_register(text) or S.kind_of_name(text) == S.KIND_MARKER)):
            return self.marker()
        return self.stack(lone=True)

    # -- F expressions ------------------------------------------------------

    def expr(self) -> S.Tm:
        """A term; a sequence ``e1; ...; en`` is read along its spine."""
        terms = []
        while not terms or self.accept(";"):
            kind = self.toks[self.pos][0]
            terms.append(self.form(*_EXPRS["let"]) if kind == "let" else
                         self.lam() if kind == "lam" else self.arith())
        e = terms.pop()
        while terms:
            e = S.SeqE(terms.pop(), e)
        return e

    def lam(self) -> S.Lam:
        self.expect("lam")
        stack = self.prefixes("stack lambda") if self.accept("[") else None
        self.expect("(", "lambda parameters")
        params = self.items(Parser.param, ")")
        self.expect(")", "lambda parameters")
        self.expect(".", "lambda")
        return S.Lam(params, self.expr(), stack)

    def param(self) -> tuple[str, S.Ty]:
        x = self.ident("parameter name")
        self.expect(":", "parameter annotation")
        return (x, self.type_())

    def arith(self) -> S.Tm:
        left = self.mult()
        while self.at("+", "-"):
            op = self.next()
            left = S.Binop(op, left, self.mult())
        return left

    def mult(self) -> S.Tm:
        left = self.prefix_expr()
        while self.at("*"):
            self.next()
            left = S.Binop("*", left, self.prefix_expr())
        return left

    def prefix_expr(self) -> S.Tm:
        kind = self.toks[self.pos][0]
        if kind in ("if0", "pi", "fold", "unfold"):
            return self.form(*_EXPRS[kind])
        return self.app_expr()

    def app_expr(self) -> S.Tm:
        e = self.atom_expr()
        while True:
            if self.accept("("):
                e = S.App(e, self.items(Parser.expr, ")"))
                self.expect(")", "application")
            elif self.at("["):
                e = self.inst(e)
            else:
                return e

    def atom_expr(self) -> S.Tm:
        match self.toks[self.pos][0]:
            case "INT" | "-":
                return self.int_val()
            case "IDENT":
                return S.Var(self.next())
            case "FT":
                return self.form(*_EXPRS["FT"])
            case "lam":
                return self.lam()
            case "(":
                self.next()
                if self.accept(")"):
                    return S.UnitVal()
                first = self.expr()
                if self.accept(","):
                    items = (first, *self.items(Parser.expr, ")"))
                    self.expect(")", "tuple")
                    return S.TupleVal(items)
                self.expect(")", "parenthesized expression")
                return first
        self.fail("expected an expression", expected=("expression",))

    # -- T small and word values --------------------------------------------

    def u_value(self) -> S.Tm:
        kind = self.toks[self.pos][0]
        base: S.Tm
        match kind:
            case "INT" | "-":
                base = self.int_val()
            case "(":
                self.next()
                if self.accept(")"):
                    base = S.UnitVal()
                else:
                    base = self.u_value()
                    self.expect(")", "parenthesized word")
            case "pack" | "fold":
                base = self.form(*_WORDS[kind])
            case "IDENT":
                name = self.next()
                base = S.Reg(name) if S.is_register(name) else S.Loc(name)
            case _:
                self.fail("expected an operand", expected=("operand",))
        while self.at("["):
            base = self.inst(base)
        return base

    def register(self, what: str = "register") -> str:
        at = self.pos
        name = self.ident(what)
        if not S.is_register(name):
            self.fail(f"{name!r} is not a register", at=at)
        return name

    def int_lit(self, what: str) -> int:
        at = self.pos
        text = self.expect("INT", what)
        try:
            return int(text)
        except ValueError:  # past the host's limit on digits read by int()
            self.fail(f"integer literal of {len(text)} digits is too long",
                      at=at)

    def int_val(self) -> S.IntVal:
        """An integer literal, with its optional minus sign."""
        neg = self.accept("-")
        n = self.int_lit("integer literal")
        return S.IntVal(-n if neg else n)

    def stack_var(self) -> str:
        at = self.pos
        z = self.ident("stack variable")
        if S.kind_of_name(z) != S.KIND_STACK:
            self.fail(f"{z!r} is not a stack variable name", at=at)
        return z

    # -- instructions --------------------------------------------------------

    def iseq(self) -> S.ISeq:
        instrs: list[S.Instr] = []
        while True:
            kind = self.toks[self.pos][0]
            if kind == "ret" and self.toks[self.pos + 1][0] == "ret":
                node = self.halting_ret()
            else:
                form = _FORMS.get(kind)
                if form is None:
                    self.fail("expected an instruction", expected=("instruction",))
                node = self.form(*form)
            self.accept(";")
            if not isinstance(node, S.Instr):
                return S.seq_of(instrs, node)
            instrs.append(node)

    def form(self, cls, steps: tuple, what: str) -> S.Node:
        """One node of class cls, read by the steps of its template: a
        token kind to expect, or a slot's reader."""
        args = []
        for step in steps:
            if type(step) is not str:
                args.append(step(self))
            elif self.toks[self.pos][0] == step:  # expect(), inlined
                self.pos += 1
            else:
                self.expect(step, what)
        return cls(*args)

    def halting_ret(self) -> S.Halt:
        """``ret ret(t, s) {r}``, the halting spelling of ``halt[t, s] r``."""
        self.next()
        q = self.marker()
        self.expect("{", "ret")
        r = self.register()
        self.expect("}", "ret")
        return S.Halt(q.tau, q.sigma, r)

    # -- components and heap fragments ---------------------------------------

    def component(self) -> S.Component:
        self.expect("(", "component")
        body = self.iseq()
        heap: tuple = ()
        if self.accept(","):
            self.expect("where", "component heap")
            heap = self.items(Parser.heap_binding, ")", trailing=True)
        self.expect(")", "component")
        return S.Component(body, heap)

    def heap_binding(self) -> S.HeapBinding:
        label = self.ident("heap label")
        self.expect("->", "heap binding")
        kind = self.toks[self.pos][0]
        if kind == "code":
            # The header is read as the block's code type.
            c = self.form(*_TYPES["code"])
            self.expect(".", "code block")
            block = S.CodeBlock(c.binders, c.chi, c.sigma, c.q, self.iseq())
            return S.HeapBinding(label, "box", block)
        if kind in ("ref", "box"):
            nu = self.next()
            self.expect("<", "heap tuple")
            words = self.items(Parser.u_value, ">")
            self.expect(">", "heap tuple")
            return S.HeapBinding(label, nu, S.TupleVal(words))
        self.fail("expected a heap value", expected=("code", "ref", "box"))

    # -- programs -------------------------------------------------------------

    def program(self) -> S.Program:
        entry = "F"
        if self.at("entry"):
            self.next()
            at = self.pos
            name = self.ident("entry language")
            if name not in ("F", "T"):
                self.fail("entry must be F or T", at=at)
            entry = name
        main: S.Node = self.component() if entry == "T" else self.expr()
        kind, text = self.peek()
        if kind != "EOF":
            self.fail(f"trailing input {text!r}", expected=("EOF",))
        return S.Program(entry, main)


# How each slot of a T_SYNTAX or TM_SYNTAX template is read, by its
# field name. An integer slot is named in messages by what it counts. The
# operands of F's prefix forms are single atoms: applications and
# arithmetic must be parenthesized, so `if0 x 1 (f(x))` reads as intended
# instead of `1` being applied to the group.
_SLOTS = {
    "op": Parser.next,
    **dict.fromkeys(("rd", "rs", "r", "r2", "reg"), Parser.register),
    "idx": lambda p: p.int_lit("tuple index"),
    "n": lambda p: p.int_lit("slot count"),
    "u": Parser.u_value,
    "body": Parser.expr,
    "sigma0": Parser.stack,
    "sigma": Parser.stack,
    "ann": Parser.type_,
    "qret": Parser.marker,
    "phi": Parser.phi,
    "tv": lambda p: p.ident("type variable"),
    "zeta": Parser.stack_var,
    **dict.fromkeys(("cond", "then", "els", "e"), Parser.atom_expr),
    "var": lambda p: p.ident("binding name"),
    "rhs": Parser.expr,
    "comp": Parser.component,
}
# A T word's operands are words.
_WORD_SLOTS = {**_SLOTS, "wit": Parser.type_, "val": Parser.u_value, "e": Parser.u_value}


# How each slot of a TY_SYNTAX template is read, by its field name. A
# ref holds a tuple type.
_TY_SLOTS = {
    "var": lambda p: p.ident("type variable"),
    "body": Parser.type_,
    "tau": Parser.type_,
    "psi": lambda p: p.form(*_TYPES["<"]),
    "items": lambda p: p.items(Parser.type_, ">"),
    "binders": lambda p: p.items(lambda q: q.ident("binder"), "]"),
    "chi": lambda p: S.make_chi(p.items(Parser.chi_entry, ";")),
    "sigma": Parser.stack,
    "q": Parser.marker,
}


# The slots a class reads otherwise: sld and sst index the stack, not a
# tuple, and a projection's index is named by its own context; a box
# holds a tuple or a code type; a let's ann slot is an optional ": type".
_OWN_SLOTS = {
    S.Sld: {"idx": lambda p: p.int_lit("stack index")},
    S.Sst: {"idx": lambda p: p.int_lit("stack index")},
    S.Proj: {"idx": lambda p: p.int_lit("projection")},
    S.Box: {"psi": lambda p: p.form(*_TYPES["code" if p.at("code") else "<"])},
    S.Let: {"ann": lambda p: p.type_() if p.accept(":") else None},
}
# The context a form names in its messages, where that is not the token
# that starts it.
_CONTEXTS = {S.Aop: "arithmetic", S.Mu: "mu type", S.Exists: "exists type",
             S.CodeT: "code type", S.TyTuple: "tuple type", S.MHalt: "halting marker",
             S.Let: "let binding", S.Proj: "projection", S.Boundary: "boundary annotation"}


def _steps(template: str, slots: dict) -> tuple:
    """A template's reading steps: a token kind to expect, or a slot's
    reader."""
    parts, end = S.template_parts(template)
    steps: list = []
    for literal, field in parts:
        steps += [kind for kind, _ in lex(literal)[:-1]]
        steps.append(slots[field])
    steps += [kind for kind, _ in lex(end)[:-1]]
    return tuple(steps)


def _keyed(table: dict, slots: dict, classes) -> dict:
    """The steps of the template in table of each of classes, with its
    class and its context in messages, by the token that starts it; an
    Aop's by each of its mnemonics."""
    forms = {}
    for cls in classes:
        steps = _steps(table[cls], {**slots, **_OWN_SLOTS.get(cls, {})})
        for key in S.AOPS if cls is S.Aop else steps[:1]:
            forms[key] = (cls, steps, _CONTEXTS.get(cls, key))
    return forms


_FORMS = _keyed(S.T_SYNTAX, _SLOTS, S.T_SYNTAX)
# The types and markers that start with a keyword or mark; markers have a
# table of their own, so that they never read as types. Type variables,
# arrows, and register, index and eps markers are read by hand.
_TYPES = _keyed(S.TY_SYNTAX, _TY_SLOTS,
                (S.TyUnit, S.TyInt, S.TyTuple, S.Mu, S.Exists, S.Ref, S.Box, S.CodeT))
_MARKERS = _keyed(S.TY_SYNTAX, _TY_SLOTS, (S.MHalt, S.MOut))
# The terms of F, and the words of T, that start with a keyword. Names,
# literals, lambdas and the terms that start with "(" are read by hand.
_EXPRS = _keyed(S.TM_SYNTAX, _SLOTS, (S.Let, S.If0, S.Proj, S.Fold, S.Unfold, S.Boundary))
_WORDS = _keyed(S.TM_SYNTAX, _WORD_SLOTS, (S.Pack, S.Fold))


_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def read_source(path) -> str:
    """The text of a UTF-8 source file, its newlines read as text mode
    reads them.  An invalid byte is a ParseError at the character where
    it stands."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        pass
    # Read again with each invalid byte kept as one lone surrogate, which
    # UTF-8 cannot encode, so the first one is the first invalid byte.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read()
    at = _ESCAPED_BYTE.search(text).start()
    raise ParseError.at(text, at, f"invalid UTF-8 byte 0x{ord(text[at]) - 0xdc00:02x}")


def parse_program(src: str) -> S.Program:
    return Parser(src).program()


def _whole(src: str, read, what: str):
    """All of src, read by read; what names it if input is left over."""
    p = Parser(src)
    node = read(p)
    p.expect("EOF", what)
    return node


def parse_expr(src: str) -> S.Tm:
    return _whole(src, Parser.expr, "expression")


def parse_type(src: str) -> S.Ty:
    return _whole(src, Parser.type_, "type")


def parse_component(src: str) -> S.Component:
    return _whole(src, Parser.component, "component")
