"""Small-step abstract machine for whole programs.

The configuration is a focus (a source expression being decomposed, a
value being plugged back into its context, or a target instruction
sequence), a stack of evaluation frames, a memory of registers, a value
stack, a heap, and a term environment for the code in focus.  Target
code in focus is closed: T types have no run-time content, so a block's
type binders are substituted away when it is entered, and no type
environment is kept.  Every transition costs one unit of fuel.

A step looks its rule up by node type in one of three tables:
``T_RULES`` for the head of a target sequence or its terminator,
``SOURCE_RULES`` for a source expression, and ``RETURN_RULES`` for the
frame a value returns to.  A type with no rule is stuck.  A target rule
takes the machine and its node, the redex, and returns the jump kind.
Sequencing is one rule, stated in ``run``: before an instruction's rule
runs, the focus moves to the rest of its sequence, so only a rule that
transfers control or rewrites the rest sets the focus.  The value stack
keeps its top at the end of a list, so pushing and popping cost nothing
per slot below; ``sld``/``sst`` indices, ``Outcome.stack`` and the
trace's ``stack_depth`` count from the top, as in the semantics.

Source code is evaluated with closures, as a CEK machine: a beta step or
a ``let`` extends the term environment, a persistent chain of (name,
value, parent) cells, instead of substituting into the body.  A lambda
evaluates to a closure of itself and that environment.  A bound
variable, or a tuple or fold whose leaves are values or bound variables,
is a value and takes one ``value`` step, as its substituted form did, so
steps are the same, one for one, as those of a substituting machine.
The frames are the evaluator's continuations, defunctionalized: one
class per form, whose fields record how far its subterms have got, so
its one return rule pushes the same frame back until the last returns.
The frames that later evaluate a subterm (``FrBinop``, ``FrIf0``,
``FrApp``, ``FrTuple``, ``FrLet`` and ``FrSeq``) keep the environment it
needs; ``FrBinop`` drops its right operand and environment once it
resumes it, keeping only the left value.  Only the final ``f-value`` is
read back to a closed term, by substituting the bindings free in each
lambda; an exported value crosses as it is, and an imported lambda is a
closure with no scope.

A component crossing a boundary is not closed over the term environment:
its instance runs under the boundary's, which each ``import`` resumes
its source term under and ``FrImport`` keeps for the code after it.
Heap blocks are checked under an empty term context, so in a checked
program only the body names a source variable.  (In a program the
checker rejects, a heap block that names one reads it from the scope
its instance was entered under, as a machine that substituted into the
component would.)

A component is entered with no walk of its code: its heap labels are
bound, not renamed, as the CEK machine binds term variables and as
Glew and Morrisett link TAL fragments by label maps.  Each entry draws
a fresh label ``label#k`` per binding from a machine-owned counter, in
declaration order, so repeated entry into one boundary cannot collide
and runs are reproducible.  An instance is the checked component's own
code and a term environment that binds ``_LABELS`` to its label map
``{label: Loc(label#k)}`` over the boundary's.  A heap cell is a triple
(nu, payload, scope): an instance's code cell holds the checked block
itself with that environment as its scope, and a tuple cell its words
resolved through the map.  The body and every block of the instance
run under it.  An operand is read as TAL's register-file application
R-hat reads it: the register or label at its core (bare, or under any
``Inst``, ``Pack`` or ``Fold``) is replaced by the word the register
holds or the map in scope binds the label to.  So a word in a register,
on the stack or in the heap names no register, and names the instance's
label, not the one written in its code.  An ``import``'s source term
runs under its code's scope, so a closure made there keeps the map, and a
component nested there may name the labels of the one around it, since
the checker checks it under the outer heap typing: its instance maps
the outer labels as the outer instance does and its own labels afresh.
One with no heap, as every one a boundary translation builds, runs
under the scope it is entered under.  So every name the machine binds
at run time (a term variable, a wrapper's hole, an instance's labels)
lives in the term environment; only T type names are closed by
substitution.

A jump enters its block with its instantiations substituted into the
body, as in the semantics, but a block is closed once per instantiation:
one table maps a body and (binders, *omegas) to the closed body, so a
loop or a repeated call substitutes nothing after its first entry.
``unpack`` closes the rest of its sequence the same way, by its type
variable and witness.  So the code in focus is closed, and so is every
word in a register, on the stack or in the heap, but for the stack
variable a ``protect`` binds: no rule substitutes it, so the code after
it, and a word read there, may name it free (``jit.ftal`` runs
``mv ra, lend#3[z]``).  Every wrapper exported at one annotation is
one block, whose body applies a term variable that its cell's scope
binds to the exported value.  Entering a block closes its body and
switches to its cell's scope, if it has one: its instance's, or its
wrapper's, which the wrapper's ``import`` reads.

A ``jmp`` or ``bnz`` resolves a word written in the code once and
caches the closed body it reaches by the word's identity, if the jump
leaves the scope as it is, which means it stays in its instance: every
instance shares the code and its blocks, so in each the word reaches
the same closed body.  A word that reaches another instance's block
(from a nested component to the one around it) switches scope, and is
resolved each time.  An operand naming a label is resolved once per
node and map.  An operand that reads a register (``ret r``, ``jmp r``,
``bnz r, r[int]``) is resolved each time, since each crossing makes a
fresh return address, and no cache keeps its word.  A ``call`` adds its
continuation's omegas, so it looks its block's body up closed under
(label, *omegas) instead.  So neither a crossing nor the entry into a
component adds an entry to any cache.  Types, stacks and markers keep
their hash (see ``syntax.TypeLevel``), so such a lookup hashes no type
tree after the first.

``run`` is the machine's one step loop, and ``step`` is one step of it
with a trace sink.  Only with a sink does a step build its JSON-ready
trace record, whose redex text is that of the closed instruction, with
its labels renamed through the label map in its scope.  A closed node's
text depends only on the node and that map, and two instantiations never
share a node with children, so one table keyed by node keeps each text
(see ``Machine._redex``).  Each rule sets at most one register, so the
rendered delta is empty or holds one entry, and neither ``run`` nor
``trace_line`` sorts or joins a list for it.  ``trace_line`` is the one
encoder of a full record: it writes the record's JSON line, byte for
byte the line ``json.dumps(record, sort_keys=True)`` gives.  Traced or
not, the machine counts in attributes ``Outcome`` leaves out:
``t_steps`` of its ``steps`` ran T code, ``jumps`` counts them by the
jump kind their rule returns, and ``salloc``, the one rule that grows
the value stack, keeps ``peak_stack_depth``.  A stuck step counts
nothing.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str
from typing import Callable

from .boundary import export_value, import_value
from .errors import TranslationError
from .syntax import (
    KIND_LOC,
    KIND_TERM,
    KIND_TYPE,
    SPELLED,
    Aop,
    App,
    Balloc,
    Binop,
    Bnz,
    Boundary,
    Call,
    CodeBlock,
    Component,
    Fold,
    Halt,
    If0,
    ImportI,
    Inst,
    IntVal,
    ISeq,
    Jmp,
    Lam,
    Ld,
    Let,
    Loc,
    Mv,
    Pack,
    Program,
    Proj,
    Protect,
    Ralloc,
    Reg,
    Ret,
    Salloc,
    Seq,
    SeqE,
    Sfree,
    Sld,
    Sst,
    St,
    Tm,
    TupleVal,
    Ty,
    UnfoldI,
    Unfold,
    UnitVal,
    Unpack,
    Var,
    free_names,
    kind_of_name,
    rename_locations,
    subst_terms,
    substitute,
)
from . import pretty

DEFAULT_FUEL = 100000

STUCK_UNBOUND_REGISTER = "unbound-register"
STUCK_UNBOUND_LOCATION = "unbound-location"
STUCK_UNBOUND_VARIABLE = "unbound-variable"
STUCK_STACK_UNDERFLOW = "stack-underflow"
STUCK_BAD_INDEX = "bad-index"
STUCK_TYPE_CONFUSION = "type-confusion"
STUCK_HALT_OUTSIDE = "halt-outside-boundary"
STUCK_UNINSTANTIATED = "uninstantiated-binder"


@dataclass(frozen=True)
class Outcome:
    """Result of running a program for a bounded number of steps.

    kind is "f-value" (a source value), "halted" (target halt at top
    level; value is the halt register's word, stack the final stack),
    "running" (fuel exhausted), or "stuck" (reason says why).
    """

    kind: str
    value: Tm | None = None
    stack: tuple = ()
    reason: str = ""
    detail: str = ""
    steps: int = 0


class _Stuck(Exception):
    def __init__(self, reason: str, detail: str = ""):
        super().__init__(reason)
        self.reason = reason
        self.detail = detail


# Evaluation frames.  ``scope`` is the term environment under which a
# frame's pending subterms run.


@dataclass(slots=True)
class FrBinop:
    op: str
    left: Tm | None  # the left operand's value, once it has returned
    right: Tm | None  # the right operand, or its value with no scope
    scope: tuple | None


@dataclass(slots=True)
class FrIf0:
    then: Tm
    els: Tm
    scope: tuple | None


@dataclass(slots=True)
class FrApp:
    fn: _Clo | None  # the function's value, once it has returned
    args: tuple
    done: list  # values of args[:len(done)]
    scope: tuple | None


@dataclass(slots=True)
class FrTuple:
    items: tuple
    done: list  # values of items[:len(done)]
    scope: tuple | None


@dataclass(slots=True)
class FrProj:
    idx: int


@dataclass(slots=True)
class FrFold:
    ann: Ty


@dataclass(slots=True)
class FrUnfold:
    pass


@dataclass(slots=True)
class FrLet:
    var: str
    body: Tm
    scope: tuple | None


@dataclass(slots=True)
class FrSeq:
    second: Tm
    scope: tuple | None


@dataclass(slots=True)
class FrBoundary:
    # Has no return rule: target code leaves a boundary only by halting.
    ann: Ty


@dataclass(slots=True)
class FrImport:
    rd: str
    ann: Ty
    rest: ISeq
    scope: tuple | None


class _Clo:
    """A source function value: a lambda and the term environment it was
    evaluated under."""

    __slots__ = ("lam", "scope")

    def __init__(self, lam: Lam, scope: tuple | None):
        self.lam = lam
        self.scope = scope


# The name that binds a component instance's label map in a term
# environment; no variable can be spelled so.
_LABELS = "#labels"


def _lookup(scope: tuple | None, name: str):
    """The value ``name`` is bound to in ``scope``, or None."""
    while scope is not None:
        if scope[0] == name:
            return scope[1]
        scope = scope[2]
    return None


def _value(e, scope: tuple | None):
    """The value of ``e`` under ``scope`` if ``e`` is a value there (a
    bound variable counts, as its substituted form would), else None."""
    t = type(e)
    if t is IntVal or t is UnitVal or t is _Clo:
        return e
    if t is Lam:
        return _Clo(e, scope)
    if t is Var:
        return _lookup(scope, e.name)
    if t is TupleVal:
        items = []
        for item in e.items:
            v = _value(item, scope)
            if v is None:
                return None
            items.append(v)
        return TupleVal(tuple(items))
    if t is Fold:
        v = _value(e.e, scope)
        return None if v is None else Fold(e.ann, v)
    return None


def _shells(word):
    """The ``Inst``, ``Pack`` and ``Fold`` shells around ``word``'s core,
    outermost first, and the core."""
    shells = []
    core, t = word, type(word)
    while t is Inst or t is Pack or t is Fold:
        shells.append(core)
        core = core.e if t is Fold else core.val
        t = type(core)
    return shells, core


def _bound(word, labels: dict):
    """``word`` as read by code whose label map is ``labels``: the label
    at its core replaced by the word ``labels`` binds it to, if any."""
    shells, core = _shells(word)
    new = labels.get(core.name) if type(core) is Loc else None
    return word if new is None else _rewrap(shells, new)


def _rewrap(shells: list, new):
    """The word ``new`` inside ``shells``, as ``_shells`` lists them."""
    for shell in reversed(shells):
        t = type(shell)
        if t is Inst:
            new = Inst(new, shell.omega)
        elif t is Pack:
            new = Pack(shell.wit, new, shell.ann)
        else:
            new = Fold(shell.ann, new)
    return new


def _read_back(v):
    """The closed term for the value ``v``: a closure's lambda has the
    value of each term name free in it and bound in its scope read back
    and substituted.  The values read back are closed, so nothing is
    renamed."""
    t = type(v)
    if t is _Clo:
        mapping = {}
        if v.scope is not None:
            for kind, name in free_names(v.lam):
                if kind == KIND_TERM:
                    bound = _lookup(v.scope, name)
                    if bound is not None:
                        mapping[name] = _read_back(bound)
        return subst_terms(v.lam, mapping) if mapping else v.lam
    if t is TupleVal:
        return TupleVal(tuple([_read_back(item) for item in v.items]))
    if t is Fold:
        return Fold(v.ann, _read_back(v.e))
    return v


# The map a text that names no label is kept under, which holds under any
# map; it is empty, so ``_redex_text`` renames nothing through it.
_ANY_MAP: dict = {}
_UNIT = UnitVal()  # words are immutable, so every fresh slot shares one
_AOPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}
_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _short(s: str, limit: int = 80) -> str:
    return s if len(s) <= limit else s[: limit - 2] + ".."


class Machine:
    """One program execution; step at most once per fuel unit."""

    def __init__(self, prog: Program):
        self.heap: dict = {}
        self.regs: dict = {}
        # The value stack, its top last; ``sld``/``sst`` index from the top.
        self.stack: list = []
        self.frames: list = []
        self.counter = 0
        self.steps = 0
        # Counters, kept out of ``Outcome`` (see the module docstring).
        self.t_steps = 0
        self.jumps = dict.fromkeys(("jmp", "call", "ret", "halt", "boundary"), 0)
        self.peak_stack_depth = 0
        self._outcome: Outcome | None = None
        self._delta: dict = {}
        # Whether the step ``run`` takes renders the redex and registers.
        self._render = False
        # Caches keyed by node identity; each entry keeps its node alive,
        # so an id is never reused while cached.
        self._targets: dict = {}  # id(word) -> (word, body)
        self._words: dict = {}  # id(word) -> (word, label map, its word)
        # (id(body), kind, binders, *omegas) -> (body, closed body)
        self._closed: dict = {}
        self._texts: dict = {}  # id(node) -> (node, redex text, label map)
        # The term environment of the source expression in focus, or of
        # the component instance or wrapper the target code in focus runs
        # in, which binds its label map (see ``_merge_component``).
        self.scope: tuple | None = None
        self.returning = False
        if prog.entry == "F":
            self.focus: Tm | ISeq = prog.main
        else:
            self.focus = self._merge_component(prog.main, None)

    # ------------------------------------------------------------------
    # Memory helpers

    def _fresh(self, prefix: str) -> str:
        label = f"{prefix}#{self.counter}"
        self.counter += 1
        return label

    def _merge_component(self, comp: Component, scope: tuple | None) -> ISeq:
        """Enter a fresh instance of ``comp`` under the term environment
        ``scope``; returns its body, as it is, with the instance's scope in
        focus: ``scope`` if it has no heap.  Otherwise each binding gets a
        fresh label, in declaration order, and the instance's scope binds
        ``_LABELS`` over ``scope`` to the map ``scope`` binds with each
        binding's label mapped to its fresh one.  A code binding's cell
        holds the checked block itself with that scope, and a tuple's
        holds its words resolved through the map; no code is walked."""
        if comp.heap:
            outer = _lookup(scope, _LABELS)
            labels = dict(outer) if outer else {}
            for hb in comp.heap:
                labels[hb.label] = Loc(self._fresh(hb.label))
            scope = (_LABELS, labels, scope)
            for hb in comp.heap:
                value = hb.value
                if isinstance(value, CodeBlock):
                    cell = (hb.nu, value, scope)
                elif isinstance(value, TupleVal):
                    cell = (hb.nu, [_bound(w, labels) for w in value.items], None)
                else:
                    raise _Stuck(STUCK_TYPE_CONFUSION,
                                 f"heap binding {hb.label} is neither code "
                                 f"nor a tuple")
                self.heap[labels[hb.label].name] = cell
        self.scope = scope
        return comp.body

    def _setreg(self, rd: str, w) -> None:
        self.regs[rd] = w
        if self._render:
            self._delta[rd] = w

    def _getreg(self, r: str):
        w = self.regs.get(r)
        if w is None:
            raise _Stuck(STUCK_UNBOUND_REGISTER, r)
        return w

    def _resolve(self, u: Tm):
        """A word for an instruction operand, read as R-hat reads it: the
        register at its core (under any ``Inst``, ``Pack`` or ``Fold``),
        if any, is read and the shells rebuilt around its word.  A label
        at its core is resolved through the label map in scope, once per
        map: the cache keeps one word per node, replaced under another
        instance's map, and never a word that reads a register."""
        t = type(u)
        if t is Reg:
            return self._getreg(u.name)
        if t is IntVal:
            return u
        labels = _lookup(self.scope, _LABELS)
        hit = self._words.get(id(u))
        if hit is not None and hit[1] is labels:
            return hit[2]
        shells, core = _shells(u)
        if type(core) is Reg:
            return _rewrap(shells, self._getreg(core.name))
        if labels is None:
            return u
        hit = self._words[id(u)] = (u, labels, _bound(u, labels))
        return hit[2]

    def _jump(self, u: Tm) -> ISeq:
        """Enter the block the operand ``u`` names; returns the block's
        closed body.  A word written in the code is resolved once if it
        reaches a block of the instance in focus: every instance shares
        the code and its blocks, so the word reaches the same closed body
        in each, and the scope stays.  An operand that reads a register
        is resolved each time, since the register's word may have been
        made by one crossing and never seen again."""
        if type(u) is Reg:
            return self._target(self._getreg(u.name), ())
        hit = self._targets.get(id(u))
        if hit is None:
            scope = self.scope
            body = self._target(self._resolve(u), ())
            if self.scope is not scope or type(_shells(u)[1]) is Reg:
                # Another instance's block, whose scope is read from its
                # cell, or a register's word: resolved each time.
                return body
            hit = self._targets[id(u)] = (u, body)
        return hit[1]

    def _target(self, word, extra: tuple) -> ISeq:
        """The body of the block ``word`` names, closed under its
        instantiations followed by ``extra``."""
        omegas = extra
        while type(word) is Inst:
            omegas = (word.omega, *omegas)
            word = word.val
        if type(word) is not Loc:
            raise _Stuck(STUCK_TYPE_CONFUSION,
                         f"jump through non-code word {pretty.word_str(word)}")
        entry = self.heap.get(word.name)
        if entry is None:
            raise _Stuck(STUCK_UNBOUND_LOCATION, word.name)
        _, block, scope = entry
        if not isinstance(block, CodeBlock):
            raise _Stuck(STUCK_TYPE_CONFUSION,
                         f"jump into the tuple {word.name}")
        if len(omegas) != len(block.binders):
            raise _Stuck(STUCK_UNINSTANTIATED,
                         f"{word.name} wants {len(block.binders)} "
                         f"instantiations, got {len(omegas)}")
        # A block runs under its cell's scope: its instance's, or an
        # exported wrapper's, which binds the exported value.
        if scope is not None:
            self.scope = scope
        if not omegas:
            return block.body
        return self._instantiate(block.body, SPELLED, block.binders, omegas)

    def _instantiate(self, body: ISeq, kind: str, binders: tuple,
                     omegas) -> ISeq:
        """``body`` with ``binders`` substituted by ``omegas``, closed once
        per body and instantiation.  Each binder is of the kind ``kind``,
        or of the one its spelling gives if that is SPELLED.  Exported
        wrappers at one annotation are one block, so a crossing closes
        nothing after the first at its instantiation."""
        key = (id(body), kind, binders, *omegas)
        hit = self._closed.get(key)
        if hit is None:
            mapping = {(kind_of_name(b) if kind == SPELLED else kind, b): om
                       for b, om in zip(binders, omegas)}
            hit = self._closed[key] = (body, substitute(body, mapping))
        return hit[1]

    def _redex(self, node, scope: tuple | None) -> str:
        """The trace text of the target redex ``node``, run under the term
        environment ``scope``: the closed instruction, with its labels
        renamed through the map in scope.  A text is kept by node, once
        if the node names no label, else under the map it was rendered
        by, and rendered again under another.  A node that names a label
        under no map is rendered each time: only an imported lambda's
        code does so, and it is built afresh for each crossing."""
        hit = self._texts.get(id(node))
        if hit is not None and hit[2] is _ANY_MAP:
            return hit[1]
        labels = _lookup(scope, _LABELS)
        if hit is None:
            if all(kind != KIND_LOC for kind, _ in free_names(node)):
                labels = _ANY_MAP
            elif labels is None:
                return _redex_text(node, None)
        elif hit[2] is labels:
            return hit[1]
        hit = self._texts[id(node)] = (node, _redex_text(node, labels), labels)
        return hit[1]

    def _resume(self, e: Tm | ISeq, scope: tuple | None) -> None:
        """Evaluate ``e`` under ``scope`` next."""
        self.focus = e
        self.scope = scope
        self.returning = False

    # ------------------------------------------------------------------
    # Stepping

    def step(self) -> dict | None:
        """One traced step of ``run``: its record, or None if none is taken."""
        records: list = []
        self.run(1, records.append)
        return records[0] if records else None

    def run(self, fuel: int, trace: Callable[[dict], None] | None = None) -> Outcome:
        """Take at most ``fuel`` steps, or fewer if the machine ends or
        gets stuck, handing each step's record to ``trace`` if given;
        returns the outcome so far.  A step sets at most one register, so
        the registers_delta holds the register it set, if any; a rule that
        set two would fail here.

        The rule is looked up by the type of the node in focus: the head
        of a target sequence, a terminator, a source expression, or the
        innermost frame a value returns to.  Before the rule for the head
        of a target sequence runs, the focus moves to the rest of the
        sequence, so that instruction falls through unless its rule sets
        the focus.  A target rule returns the jump kind, and the redex is
        the node it ran; a source or return rule returns the redex text
        and the jump kind."""
        render = self._render = trace is not None
        frames, jumps = self.frames, self.jumps
        t_steps = 0
        try:
            for _ in range(fuel):
                if self._outcome is not None:
                    break
                focus = self.focus
                if render:
                    self._delta = {}
                    scope = self.scope
                t = type(focus)
                try:
                    if t is Seq:
                        redex, lang = focus.head, "T"
                        self.focus = focus.tail
                        jump = T_RULES[type(redex)](self, redex)
                        t_steps += 1
                    elif self.returning:
                        lang = "F"
                        if frames:
                            frame = frames.pop()
                            redex, jump = RETURN_RULES[type(frame)](self, frame, focus)
                        else:
                            self._outcome = Outcome("f-value", value=_read_back(focus),
                                                    steps=self.steps + 1,
                                                    stack=tuple(reversed(self.stack)))
                            # The final plugging still counts as a step.
                            redex, jump = "result", None
                    elif t in T_RULES:
                        jump = T_RULES[t](self, focus)
                        redex, lang = focus, "T"
                        t_steps += 1
                    else:
                        lang = "F"
                        redex, jump = SOURCE_RULES[t](self, focus, self.scope)
                except _Stuck as s:
                    self._outcome = Outcome("stuck", reason=s.reason,
                                            detail=s.detail, steps=self.steps)
                    break
                self.steps += 1
                if jump is not None:
                    jumps[jump] += 1
                if render:
                    rendered = {}
                    if self._delta:
                        (r, w), = self._delta.items()
                        rendered[r] = pretty.word_str(w)
                    trace({"step": self.steps, "lang": lang,
                           "redex": self._redex(redex, scope) if lang == "T" else redex,
                           "jump": jump, "registers_delta": rendered,
                           "stack_depth": len(self.stack)})
        finally:
            self.t_steps += t_steps
        return self._outcome or Outcome("running", steps=self.steps)


def trace_line(record: dict) -> str:
    """The JSON line of a full trace record, newline included: the six
    keys in sorted order, each string escaped as ``json.dumps`` escapes
    it, so the line equals ``json.dumps(record, sort_keys=True) + "\\n"``.
    The registers_delta is written in its own order: a step sets at most
    one register, so a record of ``Machine.step`` has at most one."""
    jump, regs = record["jump"], record["registers_delta"]
    if not regs:
        delta = ""
    elif len(regs) == 1:
        (r, w), = regs.items()
        delta = f"{_json_str(r)}: {_json_str(w)}"
    else:
        delta = ", ".join([f"{_json_str(r)}: {_json_str(w)}"
                           for r, w in regs.items()])
    return (f'{{"jump": {"null" if jump is None else _json_str(jump)}, '
            f'"lang": {_json_str(record["lang"])}, '
            f'"redex": {_json_str(record["redex"])}, '
            f'"registers_delta": {{{delta}}}, '
            f'"stack_depth": {record["stack_depth"]}, "step": {record["step"]}}}\n')


class _Rules(dict):
    """A rule table keyed by node type; a type with no rule is stuck."""

    def __init__(self, missing: str, rules: dict):
        super().__init__(rules)
        self.missing = missing

    def __missing__(self, cls):
        raise _Stuck(STUCK_TYPE_CONFUSION, self.missing + cls.__name__)


# ----------------------------------------------------------------------
# Target rules: (machine, instruction or terminator) -> jump kind.  An
# instruction's rule runs with the focus already on the rest of its
# sequence, and returns None when control falls through to it.


def _t_aop(m, ins):
    a = m._getreg(ins.rs)
    b = m._resolve(ins.u)
    if type(a) is not IntVal or type(b) is not IntVal:
        raise _Stuck(STUCK_TYPE_CONFUSION, "arithmetic on non-integers")
    m._setreg(ins.rd, IntVal(_AOPS[ins.op](a.n, b.n)))


def _t_bnz(m, ins):
    c = m._getreg(ins.r)
    if type(c) is not IntVal:
        raise _Stuck(STUCK_TYPE_CONFUSION, "branch on a non-integer")
    if c.n != 0:
        m.focus = m._jump(ins.u)
        return "jmp"


def _cell(m, r: str, access: str):
    """The heap entry the location in register ``r`` names."""
    w = m._getreg(r)
    if type(w) is not Loc:
        raise _Stuck(STUCK_TYPE_CONFUSION, f"{access} through a non-location")
    entry = m.heap.get(w.name)
    if entry is None:
        raise _Stuck(STUCK_UNBOUND_LOCATION, w.name)
    return entry


def _t_ld(m, ins):
    _, payload, _ = _cell(m, ins.rs, "load")
    if type(payload) is not list:
        raise _Stuck(STUCK_TYPE_CONFUSION, "load from code")
    if ins.idx >= len(payload):
        raise _Stuck(STUCK_BAD_INDEX, f"ld {ins.idx}")
    m._setreg(ins.rd, payload[ins.idx])


def _t_st(m, ins):
    nu, payload, _ = _cell(m, ins.rd, "store")
    if nu != "ref" or type(payload) is not list:
        raise _Stuck(STUCK_TYPE_CONFUSION, "store into an immutable binding")
    if ins.idx >= len(payload):
        raise _Stuck(STUCK_BAD_INDEX, f"st {ins.idx}")
    payload[ins.idx] = m._getreg(ins.rs)


def _alloc(m, ins, nu: str, prefix: str):
    """Move the top ``ins.n`` stack words, top first, into a new cell."""
    stack = m.stack
    cut = len(stack) - ins.n
    if cut < 0:
        raise _Stuck(STUCK_STACK_UNDERFLOW, f"alloc {ins.n}")
    words = stack[cut:]
    words.reverse()
    del stack[cut:]
    label = m._fresh(prefix)
    m.heap[label] = (nu, words, None)
    m._setreg(ins.rd, Loc(label))


def _t_ralloc(m, ins):
    _alloc(m, ins, "ref", "cell")


def _t_balloc(m, ins):
    _alloc(m, ins, "box", "tup")


def _t_mv(m, ins):
    m._setreg(ins.rd, m._resolve(ins.u))


def _t_salloc(m, ins):
    m.stack.extend([_UNIT] * ins.n)
    m.peak_stack_depth = max(m.peak_stack_depth, len(m.stack))


def _t_sfree(m, ins):
    stack = m.stack
    cut = len(stack) - ins.n
    if cut < 0:
        raise _Stuck(STUCK_STACK_UNDERFLOW, f"sfree {ins.n}")
    del stack[cut:]


def _t_sld(m, ins):
    stack = m.stack
    if ins.idx >= len(stack):
        raise _Stuck(STUCK_BAD_INDEX, f"sld {ins.idx}")
    m._setreg(ins.rd, stack[-1 - ins.idx])


def _t_sst(m, ins):
    stack = m.stack
    if ins.idx >= len(stack):
        raise _Stuck(STUCK_BAD_INDEX, f"sst {ins.idx}")
    stack[-1 - ins.idx] = m._getreg(ins.rs)


def _t_unpack(m, ins):
    w = m._resolve(ins.u)
    if type(w) is not Pack:
        raise _Stuck(STUCK_TYPE_CONFUSION, "unpack of a non-package")
    m._setreg(ins.rd, w.val)
    # The binder is a type variable however it is spelled.
    m.focus = m._instantiate(m.focus, KIND_TYPE, (ins.tv,), (w.wit,))


def _t_unfold(m, ins):
    w = m._resolve(ins.u)
    if type(w) is not Fold:
        raise _Stuck(STUCK_TYPE_CONFUSION, "unfold of a non-fold")
    m._setreg(ins.rd, w.e)


def _t_protect(m, ins):
    """``protect`` only retypes the stack."""


def _t_import(m, ins):
    m.frames.append(FrImport(ins.rd, ins.ann, m.focus, m.scope))
    # The source term runs under the code's scope: a component in it may
    # name the labels of the instance the code runs in.
    m._resume(ins.body, m.scope)
    return "boundary"


def _t_jmp(m, ins):
    m.focus = m._jump(ins.u)
    return "jmp"


def _t_call(m, ins):
    # The continuation's omegas are added to the word's, so the block is
    # closed under all of them, not cached by the word.
    m.focus = m._target(m._resolve(ins.u), (ins.sigma0, ins.qret))
    return "call"


def _t_ret(m, ins):
    m.focus = m._target(m._getreg(ins.r), ())
    return "ret"


def _t_halt(m, ins):
    w = m._getreg(ins.reg)
    if not m.frames:
        m._outcome = Outcome("halted", value=w, stack=tuple(reversed(m.stack)),
                             steps=m.steps + 1)
        return "halt"
    if type(m.frames[-1]) is not FrBoundary:
        raise _Stuck(STUCK_HALT_OUTSIDE, "")
    frame = m.frames.pop()
    try:
        v = import_value(frame.ann, w, m.heap, m._fresh)
    except TranslationError as t:
        reason = (STUCK_UNBOUND_LOCATION if t.kind == "dangling-location"
                  else STUCK_TYPE_CONFUSION)
        raise _Stuck(reason, t.message)
    _give(m, _value(v, None))
    return "halt"


T_RULES = _Rules("unknown instruction ", {
    Aop: _t_aop, Bnz: _t_bnz, Ld: _t_ld, St: _t_st,
    Ralloc: _t_ralloc, Balloc: _t_balloc, Mv: _t_mv,
    Salloc: _t_salloc, Sfree: _t_sfree, Sld: _t_sld, Sst: _t_sst,
    Unpack: _t_unpack, UnfoldI: _t_unfold, Protect: _t_protect,
    ImportI: _t_import,
    Jmp: _t_jmp, Call: _t_call, Ret: _t_ret, Halt: _t_halt,
})


# ----------------------------------------------------------------------
# Source rules: (machine, expression, its scope) -> (redex, None), or
# a boundary's jump kind.  A value, or an expression that is a value
# under its scope, takes one ``value`` step.


def _give(m, v):
    m.focus = v
    m.returning = True
    return "value", None


def _s_value(m, e, scope):
    v = _value(e, scope)
    if v is None:  # of these forms, only a variable can have no value
        raise _Stuck(STUCK_UNBOUND_VARIABLE, e.name)
    return _give(m, v)


def _s_binop(m, e, scope):
    # A non-tail recursion such as ``f(y - 1) * y`` keeps one such frame
    # per level: one whose operand is a value keeps the value, and no
    # scope alive.
    right = _value(e.right, scope)
    if right is None:
        m.frames.append(FrBinop(e.op, None, e.right, scope))
    else:
        m.frames.append(FrBinop(e.op, None, right, None))
    m.focus = e.left
    return f"binop {e.op}", None


def _s_if0(m, e, scope):
    m.frames.append(FrIf0(e.then, e.els, scope))
    m.focus = e.cond
    return "if0", None


def _s_app(m, e, scope):
    m.frames.append(FrApp(None, e.args, [], scope))
    m.focus = e.fn
    return "app", None


def _s_tuple(m, e, scope):
    v = _value(e, scope)
    if v is not None:
        return _give(m, v)
    m.frames.append(FrTuple(e.items, [], scope))
    m.focus = e.items[0]
    return "tuple", None


def _s_proj(m, e, scope):
    m.frames.append(FrProj(e.idx))
    m.focus = e.e
    return f"proj.{e.idx}", None


def _s_fold(m, e, scope):
    v = _value(e, scope)
    if v is not None:
        return _give(m, v)
    m.frames.append(FrFold(e.ann))
    m.focus = e.e
    return "fold", None


def _s_unfold(m, e, scope):
    m.frames.append(FrUnfold())
    m.focus = e.e
    return "unfold", None


def _s_let(m, e, scope):
    m.frames.append(FrLet(e.var, e.body, scope))
    m.focus = e.rhs
    return f"let {e.var}", None


def _s_seq(m, e, scope):
    m.frames.append(FrSeq(e.second, scope))
    m.focus = e.first
    return "seq", None


def _s_boundary(m, e, scope):
    # The component is merged as it is and runs under ``scope``, which
    # binds the labels of the instance whose ``import`` it is in, if any.
    body = m._merge_component(e.comp, scope)
    m.frames.append(FrBoundary(e.ann))
    m.focus = body
    return "boundary", "boundary"


SOURCE_RULES = _Rules("not a source expression: ", {
    IntVal: _s_value, UnitVal: _s_value, _Clo: _s_value,
    Lam: _s_value, Var: _s_value, Binop: _s_binop, If0: _s_if0, App: _s_app,
    TupleVal: _s_tuple, Proj: _s_proj, Fold: _s_fold, Unfold: _s_unfold,
    Let: _s_let, SeqE: _s_seq, Boundary: _s_boundary,
})


# ----------------------------------------------------------------------
# Return rules: (machine, the innermost frame, popped, value) -> (redex,
# jump kind).


def _r_binop(m, fr, v):
    right = fr.right
    if right is not None:
        # The left operand returned: resume the right one, and keep only
        # the left value while it runs.
        m._resume(right, fr.scope)
        fr.left, fr.right, fr.scope = v, None, None
        m.frames.append(fr)
        return "binop-right", None
    left = fr.left
    if type(left) is not IntVal or type(v) is not IntVal:
        raise _Stuck(STUCK_TYPE_CONFUSION, "arithmetic on non-integers")
    m.focus = IntVal(_BINOPS[fr.op](left.n, v.n))
    return f"binop {fr.op}", None


def _r_if0(m, fr, v):
    if type(v) is not IntVal:
        raise _Stuck(STUCK_TYPE_CONFUSION, "if0 on a non-integer")
    m._resume(fr.then if v.n == 0 else fr.els, fr.scope)
    return "if0-pick", None


def _r_app(m, fr, v):
    done = fr.done
    if fr.fn is None:
        if type(v) is not _Clo:
            raise _Stuck(STUCK_TYPE_CONFUSION, "application of a non-function")
        fr.fn = v
    else:
        done.append(v)
    if len(done) < len(fr.args):
        m.frames.append(fr)
        m._resume(fr.args[len(done)], fr.scope)
        return "app-arg", None
    return _beta(m, fr.fn, done)


def _beta(m, fn: _Clo, args: list):
    lam, scope = fn.lam, fn.scope
    if len(args) != len(lam.params):
        raise _Stuck(STUCK_TYPE_CONFUSION,
                     f"{len(lam.params)} parameters, {len(args)} arguments")
    for (name, _), v in zip(lam.params, args):
        scope = (name, v, scope)
    m._resume(lam.body, scope)
    return "beta", None


def _r_tuple(m, fr, v):
    done = fr.done
    done.append(v)
    if len(done) < len(fr.items):
        m.frames.append(fr)
        m._resume(fr.items[len(done)], fr.scope)
        return "tuple-item", None
    m.focus = TupleVal(tuple(done))
    return "tuple", None


def _r_proj(m, fr, v):
    if type(v) is not TupleVal:
        raise _Stuck(STUCK_TYPE_CONFUSION, "projection from a non-tuple")
    if fr.idx >= len(v.items):
        raise _Stuck(STUCK_BAD_INDEX, f"proj.{fr.idx}")
    m.focus = v.items[fr.idx]
    return f"proj.{fr.idx}", None


def _r_fold(m, fr, v):
    m.focus = Fold(fr.ann, v)
    return "fold", None


def _r_unfold(m, fr, v):
    if type(v) is not Fold:
        raise _Stuck(STUCK_TYPE_CONFUSION, "unfold of a non-fold")
    m.focus = v.e
    return "unfold", None


def _r_let(m, fr, v):
    m._resume(fr.body, (fr.var, v, fr.scope))
    return f"let {fr.var}", None


def _r_seq(m, fr, v):
    m._resume(fr.second, fr.scope)
    return "seq", None


def _r_import(m, fr, v):
    try:
        w = export_value(fr.ann, v, m.heap, m._fresh)
    except TranslationError as t:
        raise _Stuck(STUCK_TYPE_CONFUSION, t.message)
    m._setreg(fr.rd, w)
    m._resume(fr.rest, fr.scope)
    return "export", "boundary"


RETURN_RULES = _Rules("value under frame ", {
    FrBinop: _r_binop, FrIf0: _r_if0, FrApp: _r_app, FrTuple: _r_tuple,
    FrProj: _r_proj, FrFold: _r_fold, FrUnfold: _r_unfold, FrLet: _r_let,
    FrSeq: _r_seq, FrImport: _r_import,
})


def _redex_text(node, labels: dict | None) -> str:
    if isinstance(node, Halt):
        return f"halt {node.reg}"
    if isinstance(node, ImportI):
        return f"import {node.rd}"
    if labels:
        node = rename_locations(node, {label: w.name for label, w in labels.items()})
    if isinstance(node, Call):
        return _short(f"call {pretty.tm(node.u)}")
    return _short(pretty.instr(node))


def run_program(prog: Program, fuel: int,
                trace: Callable[[dict], None] | None = None) -> Outcome:
    return Machine(prog).run(fuel, trace)
