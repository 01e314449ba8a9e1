"""Shared fixtures and hypothesis strategies for the test suite."""

import json
import pathlib

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from ftal import syntax as S

# Every property draws the same inputs on every run: its seed comes from
# the test itself, so a failure reproduces and two runs check the same
# cases.  A test's own @settings sets only its max_examples.
settings.register_profile("ftal", derandomize=True, deadline=None)
settings.load_profile("ftal")

CORPUS_DIR = pathlib.Path(__file__).resolve().parents[1] / "src/ftal/corpus"

PROGRAM_NAMES = (
    "call_to_call",
    "jit",
    "basic_blocks_f1",
    "basic_blocks_f2",
    "factorial_f",
    "factorial_t",
    "withref",
    "import_one_plus_one",
    "push7_stack_lambda",
)

ALL_FTAL = PROGRAM_NAMES + ("identity", "succ")


@pytest.fixture(scope="session")
def corpus_dir() -> pathlib.Path:
    return CORPUS_DIR


def corpus_text(name: str) -> str:
    return (CORPUS_DIR / f"{name}.ftal").read_text()


def decoding(records: list):
    """A trace sink that decodes each line the machine writes into
    ``records``."""
    return lambda line: records.append(json.loads(line))


# -- bare target-language equivalence jobs ----------------------------------

# Two halting programs that leave {word} on the stack and 1 in r1.
BARE = """entry T
(
  mv r1, {word};
  salloc 1;
  sst 0, r1;
  mv r1, {result};
  halt[int, int :: *] r1
)
"""


def write_bare_job(tmp_path, left_word, right_word, compare_stack):
    for side, word in (("left", left_word), ("right", right_word)):
        (tmp_path / f"{side}.ftal").write_text(
            BARE.format(word=word, result=1))
    payload = {"left": "left.ftal", "right": "right.ftal",
               "type": "int", "fuel": 1000,
               "compare_stack": compare_stack}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(payload))
    return path


# -- strategies -------------------------------------------------------------

# Source and target types and source terms are sized by their leaves
# (st.recursive): drawn by unbounded st.deferred recursion, an input cost
# hundreds of times more to draw than the property it fed took to check
# it.

# Closed source-language types (the grammar translate_type accepts).
source_types = st.recursive(
    st.sampled_from((S.TyUnit(), S.TyInt())),
    lambda inner: st.one_of(
        st.builds(lambda ts: S.TyTuple(tuple(ts)),
                  st.lists(inner, min_size=1, max_size=3)),
        st.builds(lambda ps, r: S.Arrow(tuple(ps), r),
                  st.lists(inner, max_size=3), inner),
        st.builds(lambda b: S.Mu("a", b), inner),
    ), max_leaves=8)

var_names = st.sampled_from(("x", "y", "w", "v"))

# T words nest: an instantiation, a pack or a fold holds any word, and a
# word written inside another may need parentheses.
OMEGAS = (S.TyInt(), S.TVar("a"), S.SNil(), S.SVar("z"), S.SCons(S.TyInt(), S.SNil()),
          S.MEps("eps"), S.MIdx(1), S.MReg("ra"))
PACKED = S.Exists("a", S.TVar("a"))
FOLDS = (S.Mu("a", S.TyInt()), S.Mu("a", S.TVar("a")))
# The leaves of ``words`` other than its integers.
LEAVES = (S.Reg("r1"), S.Reg("ra"), S.Loc("l"), S.UnitVal())
words = st.recursive(
    st.one_of(st.sampled_from(LEAVES), st.integers(-3, 3).map(S.IntVal)),
    lambda inner: st.one_of(
        st.builds(S.Inst, inner, st.sampled_from(OMEGAS)),
        st.builds(S.Pack, st.just(S.TyInt()), inner, st.just(PACKED)),
        st.builds(S.Fold, st.sampled_from(FOLDS), inner),
    ), max_leaves=5)


def word_shells(w) -> list:
    """Every instantiation, pack and fold of ``w`` that ``words`` draws."""
    return [*(S.Inst(w, om) for om in OMEGAS), S.Pack(S.TyInt(), w, PACKED),
            *(S.Fold(mu, w) for mu in FOLDS)]


# Small source terms; variables may be free (the parser does not scope).
# A boundary moves a word into r1 and imports a source term into r2.
stack_prefixes = st.lists(source_types, max_size=2).map(tuple)
source_terms = st.recursive(
    st.one_of(st.integers(min_value=-999, max_value=999).map(S.IntVal),
              st.just(S.UnitVal()),
              var_names.map(S.Var)),
    lambda inner: st.one_of(
        st.builds(S.Binop, st.sampled_from(("+", "-", "*")), inner, inner),
        st.builds(S.If0, inner, inner, inner),
        st.builds(lambda ps, b, s: S.Lam(tuple(ps), b, s),
                  st.lists(st.tuples(var_names, source_types),
                           max_size=2, unique_by=lambda p: p[0]),
                  inner,
                  st.none() | st.tuples(stack_prefixes, stack_prefixes)),
        st.builds(lambda f, a: S.App(f, tuple(a)), inner, st.lists(inner, max_size=2)),
        st.builds(lambda ts: S.TupleVal(tuple(ts)), st.lists(inner, min_size=1, max_size=3)),
        st.builds(S.Proj, st.integers(min_value=0, max_value=2), inner),
        st.builds(S.Fold, st.builds(lambda b: S.Mu("a", b), source_types), inner),
        st.builds(S.Unfold, inner),
        st.builds(S.Let, var_names, st.none() | source_types, inner, inner),
        st.builds(S.SeqE, inner, inner),
        st.builds(lambda t, w, e: S.Boundary(t, S.Component(S.seq_of(
                      [S.Mv("r1", w), S.ImportI("r2", S.SNil(), "z", t, e)],
                      S.Halt(t, S.SNil(), "r2")), ())),
                  source_types, words, inner),
    ), max_leaves=12)

# Target-language types: code types over stack and marker binders, heap
# types, existentials, recursive types and every marker form, with source
# types among their parts. Names may be free (the parser does not scope).
# Stacks, markers, code types and tuple types are built over ``inner``,
# the types nested in them, so that one bound sizes the whole type.
stack_tails = st.sampled_from((S.SNil(), S.SVar("z"), S.SVar("z1")))


def _target_types_over(inner):
    target_stacks = st.builds(S.stack_of, st.lists(inner, max_size=2), stack_tails)
    target_markers = st.one_of(
        st.sampled_from(S.REGISTERS).map(S.MReg),
        st.integers(min_value=0, max_value=9).map(S.MIdx),
        st.sampled_from(("eps", "eps1")).map(S.MEps),
        st.builds(S.MHalt, inner, target_stacks),
        st.just(S.MOut()),
    )
    code_types = st.builds(
        S.CodeT,
        st.lists(st.sampled_from(("z", "z1", "eps", "eps1")),
                 max_size=3, unique=True).map(tuple),
        st.dictionaries(st.sampled_from(S.REGISTERS), inner,
                        max_size=3).map(lambda d: S.make_chi(d.items())),
        target_stacks,
        target_markers,
    )
    tuple_types = st.lists(inner, max_size=3).map(lambda ts: S.TyTuple(tuple(ts)))
    return st.one_of(
        code_types,
        st.one_of(tuple_types, code_types).map(S.Box),
        tuple_types.map(S.Ref),
        st.builds(S.Exists, st.sampled_from(("a", "b")), inner),
        st.builds(S.Mu, st.sampled_from(("a", "b")), inner),
        tuple_types,
    )


target_types = st.recursive(
    st.one_of(st.sampled_from(("a", "b")).map(S.TVar), source_types),
    _target_types_over, max_leaves=8)
