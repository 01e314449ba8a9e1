"""Boundary translations: type translation shapes, exact first-order
value round trips, and extensional higher-order round trips."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import OMEGAS, source_types
from ftal import boundary, machine, parser
from ftal import syntax as S
from ftal.errors import KindError, TranslationError


def tr(text: str) -> S.Ty:
    return boundary.translate_type(parser.parse_type(text))


def expect_ty(text: str) -> S.Ty:
    return parser.parse_type(text)


def scratch():
    heap = {}
    counter = itertools.count()
    return heap, lambda base: f"{base}#{next(counter)}"


def test_base_types_translate_to_themselves():
    assert tr("int") == S.TyInt()
    assert tr("unit") == S.TyUnit()


def test_tuple_translates_to_boxed_tuple():
    assert S.alpha_equal(tr("<int, unit>"), expect_ty("box <int, unit>"))
    assert S.alpha_equal(tr("<int, <int>>"),
                         expect_ty("box <int, box <int>>"))


def test_recursive_type_translates_through_mu():
    assert S.alpha_equal(tr("mu a. <a, int>"),
                         expect_ty("mu a. box <a, int>"))


def test_arrow_translation_shape():
    got = tr("(int) -> int")
    want = expect_ty(
        "box code[z, eps]{ra: box code[]{r1: int; z} eps; int :: z} ra")
    assert S.alpha_equal(got, want)


def test_arrow_translation_puts_last_argument_on_top():
    got = tr("(int, unit) -> int")
    want = expect_ty(
        "box code[z, eps]{ra: box code[]{r1: int; z} eps; "
        "unit :: int :: z} ra")
    assert S.alpha_equal(got, want)


def test_stack_arrow_translation_threads_both_prefixes():
    got = tr("(int)[int :: . => unit :: .] -> unit")
    want = expect_ty(
        "box code[z, eps]{ra: box code[]{r1: unit; unit :: z} eps; "
        "int :: int :: z} ra")
    assert S.alpha_equal(got, want)


def test_nested_arrow_translation_is_closed():
    got = tr("((int) -> int) -> int")
    assert S.free_names(got) == frozenset()


@pytest.mark.parametrize("text", (
    "box <int>",
    "ref <int>",
    "exists a. int",
    "code[]{r1: int; *} ret(int, *)",
))
def test_target_only_types_are_rejected(text):
    with pytest.raises(KindError):
        tr(text)


@settings(max_examples=40)
@given(source_types)
def test_translating_a_translation_fails_unless_fixed(t):
    # The image of a non-trivial source type is a target type; feeding
    # arrows or tuples back in must be rejected.
    image = boundary.translate_type(t)
    if S.alpha_equal(image, t):
        return
    with pytest.raises(KindError):
        boundary.translate_type(image)



@pytest.mark.parametrize("text", (
    "(int) -> int", "((int) -> int) -> <int, unit>",
    "mu a. (a) -> ((int) -> int)", "(int)[int :: . => unit :: .] -> unit"))
def test_a_type_is_translated_once_and_a_translation_is_still_refused(text):
    t = parser.parse_type(text)
    image = boundary.translate_type(t)
    assert boundary.translate_type(parser.parse_type(text)) is image
    for _ in range(2):
        with pytest.raises(KindError):
            boundary.translate_type(image)


# -- wrappers against the builders that built every part per crossing -------


def reference_export_block(ann, v):
    """The exported block as it was built before its parts were shared."""
    params, phi_in, phi_out, ret_ty = S.arrow_parts(ann)
    n, m, mo = len(params), len(phi_in), len(phi_out)
    code = boundary.translate_type(ann).psi
    z, eps = code.binders
    cont_ty = S.chi_get(code.chi, "ra")
    args_rev = [boundary.translate_type(p) for p in reversed(params)]
    instrs = [S.Salloc(1)]
    for j in range(n + m):
        instrs += [S.Sld("r2", j + 1), S.Sst(j, "r2")]
    instrs.append(S.Sst(n + m, "ra"))
    stashed = args_rev + list(phi_in) + [cont_ty]
    shims = []
    for i in range(1, n + 1):
        ti = params[i - 1]
        if i < n:
            body = S.seq_of([S.Sld("r1", n - i)], S.Halt(
                boundary.translate_type(ti), S.stack_of(stashed, S.SVar(z)), "r1"))
        else:
            body = S.seq_of([S.Sld("r1", 0), S.Sfree(n)], S.Halt(
                boundary.translate_type(ti),
                S.stack_of(list(phi_in) + [cont_ty], S.SVar(z)), "r1"))
        shims.append(S.Boundary(ti, S.Component(body, ())))
    zeta = boundary._pick("zi", {z, eps})
    instrs.append(S.ImportI("r1", S.stack_of([cont_ty], S.SVar(z)), zeta,
                            ret_ty, S.App(v, tuple(shims))))
    instrs.append(S.Sld("ra", mo))
    for j in reversed(range(mo)):
        instrs += [S.Sld("r2", j), S.Sst(j + 1, "r2")]
    instrs.append(S.Sfree(1))
    return S.CodeBlock(code.binders, code.chi, code.sigma, S.MReg("ra"),
                       S.seq_of(instrs, S.Ret("ra", "r1")))


def reference_import_lambda(ann, w, heap, fresh):
    """The imported lambda as it was built before its parts were shared."""
    params, phi_in, phi_out, ret_ty = S.arrow_parts(ann)
    ret_plus = boundary.translate_type(ret_ty)
    avoid = boundary._names_in(ann, w)
    z = boundary._pick("z", avoid)
    zeta = boundary._pick("zi", avoid | {z})
    instrs = [S.Protect(tuple(phi_in), z)]
    pushed = []
    for i, ti in enumerate(params, 1):
        sigma0 = S.stack_of(pushed + list(phi_in), S.SVar(z))
        instrs += [S.ImportI("r1", sigma0, zeta, ti, S.Var(f"x{i}")),
                   S.Salloc(1), S.Sst(0, "r1")]
        pushed.insert(0, boundary.translate_type(ti))
    zend = boundary._pick("z", boundary._names_in(*phi_out, ret_plus))
    end_sigma = S.stack_of(phi_out, S.SVar(zend))
    end_label = fresh("lend")
    heap[end_label] = ("box", S.CodeBlock(
        (zend,), S.make_chi([("r1", ret_plus)]), end_sigma,
        S.MHalt(ret_plus, end_sigma), S.Halt(ret_plus, end_sigma, "r1")), None)
    instrs.append(S.Mv("ra", S.Inst(S.Loc(end_label), S.SVar(z))))
    comp = S.Component(S.seq_of(instrs, S.Call(
        w, S.SVar(z), S.MHalt(ret_plus, S.stack_of(phi_out, S.SVar(z))))), ())
    stack = ((tuple(phi_in), tuple(phi_out))
             if isinstance(ann, S.StackArrow) else None)
    return S.Lam(tuple((f"x{i}", t) for i, t in enumerate(params, 1)),
                 S.Boundary(ret_ty, comp), stack)


ARROWS = ("(int) -> int", "((int) -> int) -> (unit) -> <int, unit>",
          "(int, unit, <int>) -> int", "() -> unit",
          "(int)[int :: . => unit :: .] -> unit",
          "(unit, int)[. => int :: int :: .] -> (int) -> int")
# Words whose names beginning with z push the wrapper's picks aside.
WORDS = (S.Loc("l#0"), S.Loc("z"), S.Loc("zi"),
         S.Inst(S.Loc("z#0"), S.SVar("z")))


def exported_blocks(ann, v) -> list:
    """The blocks exporting v at ann allocates, each with the value its
    cell's scope binds substituted for the hole in its shared body."""
    heap, fresh = scratch()
    w = boundary.export_value(ann, v, heap, fresh)
    assert w == S.Loc("lexp#0")
    out = []
    for _, block, scope in heap.values():
        assert scope == (boundary._HOLE, v, None)
        assert block is boundary._export_block(ann)
        body = S.subst_terms(block.body, {boundary._HOLE: v})
        out.append(S.CodeBlock(block.binders, block.chi, block.sigma,
                               block.q, body))
    return out


@pytest.mark.parametrize("text", ARROWS)
def test_shared_parts_build_the_wrappers_built_per_crossing(text):
    ann = parser.parse_type(text)
    for v in (S.Var("f"), parser.parse_expr("lam (y: int). y")) * 2:
        assert exported_blocks(ann, v) == [reference_export_block(ann, v)]
    for w in WORDS * 2:
        heap, fresh = scratch()
        want_heap, want_fresh = scratch()
        got = boundary.import_value(ann, w, heap, fresh)
        assert got == reference_import_lambda(ann, w, want_heap, want_fresh)
        assert heap == want_heap


@settings(max_examples=60)
@given(source_types)
def test_shared_parts_build_every_arrow_wrapper_as_before(t):
    if not isinstance(t, S.Arrow):
        return
    v = S.Var("f")
    assert exported_blocks(t, v) == [reference_export_block(t, v)]
    heap, fresh = scratch()
    want_heap, want_fresh = scratch()
    assert boundary.import_value(t, S.Loc("z"), heap, fresh) == \
        reference_import_lambda(t, S.Loc("z"), want_heap, want_fresh)
    assert heap == want_heap


# Code words: labels, some spelled like the names an imported lambda picks
# (z, zi) or merely beginning with z, under instantiations.
code_words = st.recursive(
    st.sampled_from(("l", "l#0", "z", "zi", "zl", "z#0")).map(S.Loc),
    lambda word: st.builds(S.Inst, word, st.sampled_from(OMEGAS + (S.SVar("zi"),))),
    max_leaves=3)


@settings(max_examples=100)
@given(st.sampled_from(ARROWS).map(parser.parse_type), code_words)
def test_an_imported_lambda_avoids_the_names_free_in_its_word(ann, w):
    # A bare label's names are read off the label, with no walk.
    heap, fresh = scratch()
    want_heap, want_fresh = scratch()
    assert boundary.import_value(ann, w, heap, fresh) == \
        reference_import_lambda(ann, w, want_heap, want_fresh)
    assert heap == want_heap


def test_an_imported_lambda_shares_its_parts_unless_its_word_names_a_pick():
    # Of l, zl, zq and z, only z is a name the wrapper could pick, so the
    # first three share one entry and z needs a second.
    ann = parser.parse_type("(int) -> int")
    boundary._import_parts.cache_clear()
    for name in ("l", "zl", "zq", "z"):
        heap, fresh = scratch()
        boundary.import_value(ann, S.Loc(name), heap, fresh)
    assert boundary._import_parts.cache_info().misses == 2


# -- value round trips ------------------------------------------------------


@pytest.mark.parametrize("ann,value", (
    ("int", S.IntVal(5)),
    ("int", S.IntVal(-12345678901234567890)),
    ("unit", S.UnitVal()),
))
def test_flat_values_round_trip_identically(ann, value):
    heap, fresh = scratch()
    t = parser.parse_type(ann)
    w = boundary.export_value(t, value, heap, fresh)
    assert w == value
    assert boundary.import_value(t, w, heap, fresh) == value


def test_tuple_round_trips_exactly():
    heap, fresh = scratch()
    t = parser.parse_type("<int, <unit, int>>")
    v = S.TupleVal((S.IntVal(1),
                    S.TupleVal((S.UnitVal(), S.IntVal(2)))))
    w = boundary.export_value(t, v, heap, fresh)
    assert isinstance(w, S.Loc)
    back = boundary.import_value(t, w, heap, fresh)
    assert S.alpha_equal(back, v)


def test_folded_value_round_trips_exactly():
    heap, fresh = scratch()
    t = parser.parse_type("mu a. int")
    v = S.Fold(t, S.IntVal(3))
    w = boundary.export_value(t, v, heap, fresh)
    back = boundary.import_value(t, w, heap, fresh)
    assert S.alpha_equal(back, v)


def test_export_of_mistyped_value_is_ill_typed():
    heap, fresh = scratch()
    with pytest.raises(TranslationError) as exc:
        boundary.export_value(S.TyInt(), S.UnitVal(), heap, fresh)
    assert exc.value.kind == "ill-typed"


def test_import_through_dangling_location_fails():
    heap, fresh = scratch()
    t = parser.parse_type("<int>")
    with pytest.raises(TranslationError) as exc:
        boundary.import_value(t, S.Loc("nowhere"), heap, fresh)
    assert exc.value.kind == "dangling-location"


def test_import_of_mutable_binding_at_tuple_type_fails():
    heap, fresh = scratch()
    heap["cell#0"] = ("ref", [S.IntVal(1)], None)
    with pytest.raises(TranslationError):
        boundary.import_value(parser.parse_type("<int>"),
                              S.Loc("cell#0"), heap, fresh)


# -- higher-order, extensional ----------------------------------------------


def _through_boundary(fn_src: str, ann_text: str, arg: int) -> machine.Outcome:
    """Push fn through an export/import pair and apply it to arg."""
    ann = parser.parse_type(ann_text)
    fn = parser.parse_expr(fn_src)
    body = S.Seq(
        S.ImportI("r1", S.SNil(), "z", ann, fn),
        S.Halt(boundary.translate_type(ann), S.SNil(), "r1"))
    sandwich = S.Boundary(ann, S.Component(body, ()))
    prog = S.Program("F", S.App(sandwich, (S.IntVal(arg),)))
    return machine.run_program(prog, 100000)


def test_higher_order_round_trip_is_extensional():
    inputs = random.Random(0).sample(range(-100, 100), 20)
    for n in inputs:
        out = _through_boundary("lam (x: int). x + 1", "(int) -> int", n)
        assert out.kind == "f-value"
        assert out.value == S.IntVal(n + 1)


def test_higher_order_round_trip_two_arguments():
    for a, b in ((3, 4), (0, 9), (-5, 5)):
        ann = parser.parse_type("(int, int) -> int")
        fn = parser.parse_expr("lam (x: int, y: int). x - y")
        body = S.Seq(
            S.ImportI("r1", S.SNil(), "z", ann, fn),
            S.Halt(boundary.translate_type(ann), S.SNil(), "r1"))
        sandwich = S.Boundary(ann, S.Component(body, ()))
        prog = S.Program("F", S.App(sandwich, (S.IntVal(a), S.IntVal(b))))
        out = machine.run_program(prog, 100000)
        assert out.kind == "f-value" and out.value == S.IntVal(a - b)
