"""The machine against a reference: a big-step evaluator for pure F that
substitutes on every beta and let, as the paper's semantics reads.  The
machine evaluates with closures and environments; on generated closed,
well-typed terms both must give the same value, up to renaming of bound
names.  The evaluator lives here only, as a reference for tests."""

from hypothesis import given, settings
from hypothesis import strategies as st

from ftal import machine
from ftal import syntax as S
from ftal.syntax import alpha_equal, subst_terms
from ftal.typecheck import check_program

_OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
        "*": lambda a, b: a * b}


def evaluate(e: S.Tm) -> S.Tm:
    """The value of the closed pure-F term ``e``, call by value."""
    if isinstance(e, (S.IntVal, S.UnitVal, S.Lam)):
        return e
    if isinstance(e, S.TupleVal):
        return S.TupleVal(tuple(evaluate(item) for item in e.items))
    if isinstance(e, S.Proj):
        return evaluate(e.e).items[e.idx]
    if isinstance(e, S.Binop):
        left, right = evaluate(e.left), evaluate(e.right)
        return S.IntVal(_OPS[e.op](left.n, right.n))
    if isinstance(e, S.If0):
        return evaluate(e.then if evaluate(e.cond).n == 0 else e.els)
    if isinstance(e, S.Let):
        return evaluate(subst_terms(e.body, {e.var: evaluate(e.rhs)}))
    if isinstance(e, S.App):
        fn = evaluate(e.fn)
        args = [evaluate(a) for a in e.args]
        return evaluate(subst_terms(
            fn.body, {name: v for (name, _), v in zip(fn.params, args)}))
    raise ValueError(f"not a pure F term: {type(e).__name__}")


# -- generated closed, well-typed pure-F terms --------------------------------

NAMES = ("x", "y", "f")  # few names, so binders shadow each other
INT, UNIT = S.TyInt(), S.TyUnit()

types = st.recursive(
    st.sampled_from((INT, INT, INT, UNIT)),
    lambda inner: st.one_of(
        st.lists(inner, min_size=1, max_size=3).map(
            lambda ts: S.TyTuple(tuple(ts))),
        st.builds(lambda ps, r: S.Arrow(tuple(ps), r),
                  st.lists(inner, max_size=2), inner)),
    max_leaves=4)


@st.composite
def terms(draw, ty, ctx: dict, depth: int):
    """A term of type ``ty`` whose free names are typed by ``ctx``."""
    bound = sorted(n for n, t in ctx.items() if t == ty)
    rule = draw(st.integers(-1, 7 if depth > 0 else 1))
    if rule <= 1 and bound:
        return S.Var(draw(st.sampled_from(bound)))
    if rule == 2:
        rhs_ty, x = draw(types), draw(st.sampled_from(NAMES))
        return S.Let(x, None, draw(terms(rhs_ty, ctx, depth - 1)),
                     draw(terms(ty, {**ctx, x: rhs_ty}, depth - 1)))
    if rule == 3:
        return S.If0(draw(terms(INT, ctx, depth - 1)),
                     draw(terms(ty, ctx, depth - 1)),
                     draw(terms(ty, ctx, depth - 1)))
    if rule == 4:
        params = tuple(draw(st.lists(types, max_size=2)))
        fn = draw(terms(S.Arrow(params, ty), ctx, depth - 1))
        return S.App(fn, tuple(draw(terms(p, ctx, depth - 1)) for p in params))
    if rule == 5:
        items = draw(st.lists(types, max_size=2))
        i = draw(st.integers(0, len(items)))
        items.insert(i, ty)
        return S.Proj(i, draw(terms(S.TyTuple(tuple(items)), ctx, depth - 1)))
    if rule == 6 and ty == INT:
        return S.Binop(draw(st.sampled_from("+-*")),
                       draw(terms(INT, ctx, depth - 1)),
                       draw(terms(INT, ctx, depth - 1)))
    # The introduction form of ty.
    sub = max(depth - 1, 0)
    if ty == INT:
        return S.IntVal(draw(st.integers(-3, 3)))
    if ty == UNIT:
        return S.UnitVal()
    if isinstance(ty, S.TyTuple):
        return S.TupleVal(tuple(draw(terms(t, ctx, sub)) for t in ty.items))
    names = draw(st.lists(st.sampled_from(NAMES), min_size=len(ty.params),
                          max_size=len(ty.params), unique=True))
    params = tuple(zip(names, ty.params))
    return S.Lam(params, draw(terms(ty.ret, {**ctx, **dict(params)}, sub)))


@st.composite
def programs(draw):
    ty = draw(types)
    return ty, draw(terms(ty, {}, 5))


@settings(max_examples=200)
@given(programs())
def test_the_machine_agrees_with_the_substituting_evaluator(case):
    ty, term = case
    prog = S.Program("F", term)
    assert check_program(prog) == (ty, S.SNil())
    out = machine.run_program(prog, machine.DEFAULT_FUEL)
    assert out.kind == "f-value"
    assert S.free_names(out.value) == frozenset()
    assert alpha_equal(out.value, evaluate(term))
