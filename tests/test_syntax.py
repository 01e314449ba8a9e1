"""Syntax-tree basics: alpha equality, substitution, helpers."""

import copy
import dataclasses
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_syntax
from conftest import source_terms, source_types, target_types
from ftal import pretty
from ftal import syntax as S


def code(binders, chi, sigma, q):
    return S.CodeT(tuple(binders), tuple(chi), sigma, q)


def test_alpha_equal_ignores_binder_names():
    a = S.Mu("a", S.Arrow((S.TVar("a"),), S.TyInt()))
    b = S.Mu("b", S.Arrow((S.TVar("b"),), S.TyInt()))
    assert S.alpha_equal(a, b)


def test_alpha_equal_distinguishes_structure():
    assert not S.alpha_equal(S.TyInt(), S.TyUnit())
    assert not S.alpha_equal(
        S.Arrow((S.TyInt(),), S.TyInt()),
        S.Arrow((S.TyInt(), S.TyInt()), S.TyInt()))
    # Unused binders of different kinds: a stack and a type variable.
    assert not S.alpha_equal(code(["z"], [], S.SNil(), S.MOut()),
                             code(["a"], [], S.SNil(), S.MOut()))


def test_alpha_equal_code_types_with_renamed_stack_binder():
    a = code(["z", "eps"], [("r1", S.TyInt())], S.SVar("z"), S.MEps("eps"))
    b = code(["z9", "eps2"], [("r1", S.TyInt())], S.SVar("z9"),
             S.MEps("eps2"))
    assert S.alpha_equal(a, b)


def test_alpha_equal_code_types_free_vs_bound():
    a = code(["z"], [("r1", S.TyInt())], S.SVar("z"), S.MHalt(S.TyInt(),
                                                             S.SVar("z")))
    b = code(["z2"], [("r1", S.TyInt())], S.SVar("z"), S.MHalt(S.TyInt(),
                                                               S.SVar("z")))
    # In b the binder z2 is unused and z is free; not the same type.
    assert not S.alpha_equal(a, b)


def test_substitute_stack_variable():
    t = S.SCons(S.TyInt(), S.SVar("z"))
    got = S.substitute(t, {(S.KIND_STACK, "z"): S.SNil()})
    assert S.alpha_equal(got, S.SCons(S.TyInt(), S.SNil()))


def test_substitute_avoids_capture_under_code_binder():
    # Substituting z := int :: z2 into a type that binds z2 must rename
    # the bound z2 first.
    inner = code(["z2"], [("r1", S.TVar("b"))],
                 S.SCons(S.TyInt(), S.SVar("z")),
                 S.MHalt(S.TyInt(), S.SVar("z2")))
    got = S.substitute(inner, {(S.KIND_STACK, "z"):
                               S.SCons(S.TyUnit(), S.SVar("z2"))})
    want = code(["z3"], [("r1", S.TVar("b"))],
                S.SCons(S.TyInt(), S.SCons(S.TyUnit(), S.SVar("z2"))),
                S.MHalt(S.TyInt(), S.SVar("z3")))
    assert S.alpha_equal(got, want)


def test_subst_terms_avoids_capture_in_lambda():
    # (lam x. y)[y := x] must not capture the argument x.
    lam = S.Lam((("x", S.TyInt()),), S.Var("y"))
    got = S.subst_terms(lam, {"y": S.Var("x")})
    assert isinstance(got, S.Lam)
    (pname, _), = got.params
    assert pname != "x"
    assert got.body == S.Var("x")


def test_subst_terms_shadowing_stops_substitution():
    lam = S.Lam((("x", S.TyInt()),), S.Var("x"))
    got = S.subst_terms(lam, {"x": S.IntVal(1)})
    assert S.alpha_equal(got, lam)


def test_fresh_name_respects_avoid_set():
    avoid = {"z", "z#0", "z#1"}
    name = S.fresh_name("z", avoid)
    assert name == "z#2"
    assert S.fresh_name("z", set()) == "z#0"


def test_fresh_name_keeps_kind_prefix():
    assert S.kind_of_name(S.fresh_name("z", {"z#0"})) == S.KIND_STACK
    assert S.kind_of_name(S.fresh_name("eps", set())) == S.KIND_MARKER
    assert S.kind_of_name(S.fresh_name("a", set())) == S.KIND_TYPE


def test_make_chi_sorts_by_register_order():
    chi = S.make_chi({"ra": S.TyInt(), "r2": S.TyUnit(), "r1": S.TyInt()})
    assert [r for r, _ in chi] == ["r1", "r2", "ra"]


def test_seq_of_and_iteration():
    body = S.seq_of([S.Mv("r1", S.IntVal(1)), S.Salloc(1)],
                    S.Halt(S.TyInt(), S.SNil(), "r1"))
    assert isinstance(body, S.Seq)
    assert isinstance(body.tail, S.Seq)
    assert isinstance(body.tail.tail, S.Halt)


def test_stack_parts_splits_prefix_and_tail():
    s = S.SCons(S.TyInt(), S.SCons(S.TyUnit(), S.SVar("z")))
    prefix, tail = S.stack_parts(s)
    assert prefix == [S.TyInt(), S.TyUnit()]
    assert tail == S.SVar("z")
    prefix, tail = S.stack_parts(S.SNil())
    assert prefix == [] and tail == S.SNil()


def test_rename_locations_respects_component_shadowing():
    # A component that rebinds a label keeps its local meaning.
    inner = S.Component(S.Jmp(S.Loc("l")), (
        S.HeapBinding("l", "box",
                      S.CodeBlock((), (), S.SNil(), S.MHalt(S.TyInt(),
                                                            S.SNil()),
                                  S.Jmp(S.Loc("l")))),))
    outer = S.Boundary(S.TyInt(), inner)
    got = S.rename_locations(outer, {"l": "l#9"})
    assert got == outer


def test_rename_locations_rewrites_free_labels():
    got = S.rename_locations(S.Jmp(S.Loc("l")), {"l": "l#9"})
    assert got == S.Jmp(S.Loc("l#9"))


@given(source_types)
def test_alpha_equal_reflexive_on_types(t):
    assert S.alpha_equal(t, t)


@given(source_terms)
def test_alpha_equal_reflexive_on_terms(e):
    assert S.alpha_equal(e, e)


@given(source_types)
def test_substituting_an_unused_name_is_identity(t):
    got = S.substitute(t, {(S.KIND_TYPE, "zzfree"): S.TyInt()})
    assert S.alpha_equal(got, t)


def test_free_names_sees_through_binders():
    lam = S.Lam((("x", S.TyInt()),),
                S.Binop("+", S.Var("x"), S.Var("y")))
    assert S.free_names(lam) == {(S.KIND_TERM, "y")}


def test_a_property_draws_the_same_inputs_on_every_run():
    # conftest loads a derandomized profile for every property.
    drawn = []

    @settings(max_examples=20)
    @given(source_types)
    def draw(t):
        drawn[-1].append(t)

    for _ in range(2):
        drawn.append([])
        draw()
    assert drawn[0] and drawn[0] == drawn[1]


@given(source_terms)
def test_free_names_entries_are_kind_name_pairs(e):
    for entry in S.free_names(e):
        kind, name = entry
        assert isinstance(name, str) and kind in (
            S.KIND_TERM, S.KIND_TYPE, S.KIND_STACK, S.KIND_MARKER,
            S.KIND_LOC)


def test_every_node_class_has_one_schema_entry():
    nodes = {c for c in vars(S).values() if isinstance(c, type)
             and issubclass(c, S.Node) and dataclasses.is_dataclass(c)}
    assert nodes and nodes == set(S.SCHEMA)
    for cls, schema in S.SCHEMA.items():
        names = {f.name for f in dataclasses.fields(cls)}
        assert schema.cls is cls
        assert {name for name, _, _ in schema.children} <= names, cls
        # Each type-level class keeps the hash its dataclass gives.
        assert ("_field_hash" in vars(cls)) == schema.typelevel == \
            issubclass(cls, S.TypeLevel), cls
        if schema.binds is not None:
            field, _, scope = schema.binds
            assert field in names, cls
            assert scope == S.TAIL or set(scope) <= names, cls


def test_every_field_of_a_node_is_syntax_compared_by_equality():
    # A node holds syntax only: run-time state kept on one would have to
    # hide from equality, and every walk would drop it when rebuilding.
    for cls, schema in S.SCHEMA.items():
        names = [f.name for f in dataclasses.fields(cls)]
        assert all(f.compare for f in dataclasses.fields(cls)), cls
        assert [name for name, _, _ in schema.fields] == names, cls


def test_substitute_renames_term_and_label_namespaces():
    term = S.Lam((("x", S.TyInt()),), S.App(S.Var("y"), (S.Var("x"),)))
    got = S.substitute(term, {(S.KIND_TERM, "y"): S.Var("x")})
    assert S.alpha_equal(got, S.subst_terms(term, {"y": S.Var("x")}))
    assert S.free_names(got) == {(S.KIND_TERM, "x")}
    jmp = S.Jmp(S.Loc("l"))
    got = S.substitute(jmp, {(S.KIND_LOC, "l"): S.Loc("m")})
    assert got == S.rename_locations(jmp, {"l": "m"}) == S.Jmp(S.Loc("m"))


def test_unpack_binds_over_the_rest_of_the_sequence():
    body = S.seq_of([S.Unpack("a", "r1", S.Reg("r2")),
                     S.Mv("r3", S.Inst(S.Reg("r1"), S.TVar("a")))],
                    S.Halt(S.TVar("a"), S.SNil(), "r1"))
    assert S.free_names(body) == frozenset()
    # a := b leaves the bound a alone; b := a renames the binder.
    assert S.substitute(body, {(S.KIND_TYPE, "a"): S.TyInt()}) == body
    renamed = S.seq_of([S.Unpack("b", "r1", S.Reg("r2")),
                        S.Mv("r3", S.Inst(S.Reg("r1"), S.TVar("b")))],
                       S.Halt(S.TVar("b"), S.SNil(), "r1"))
    assert S.alpha_equal(body, renamed)
    assert not S.alpha_equal(body, S.Seq(renamed.head, body.tail))


def test_renaming_a_binder_avoids_capture_by_an_inner_binder():
    # code[z]{; z} holding code[z#0]{; z}: substituting the free a := z
    # renames the outer z to z#0, so the inner z#0 must move as well.
    inner = S.CodeT(("z#0",), (), S.SVar("z"), S.MOut())
    outer = S.CodeT(("z",), (("r1", S.Box(inner)), ("r2", S.TVar("a"))),
                    S.SVar("z"), S.MOut())
    got = S.substitute(outer, {(S.KIND_TYPE, "a"): S.Ref(S.TyTuple(
        (S.CodeT((), (), S.SVar("z"), S.MOut()),)))})
    (_, boxed), _ = got.chi
    assert got.binders == ("z#0",)
    assert boxed.psi.sigma == S.SVar("z#0")
    assert boxed.psi.binders != ("z#0",)


# -- capture avoidance on generated syntax -----------------------------------

# Few names, several of them spelled like fresh names, so that binders
# collide with the free names of replacements and with each other. Sorts
# mix freely within types, stacks and markers: binding does not look at
# them.
TY_NAMES = st.sampled_from(("a", "b", "a#0"))
STK_NAMES = st.sampled_from(("z", "z2", "z#0"))
TM_NAMES = st.sampled_from(("x", "y", "x#0"))
binders = st.lists(st.sampled_from(("a", "a#0", "z", "z#0", "eps", "eps#0")),
                   max_size=3, unique=True).map(tuple)

type_level = st.recursive(
    st.one_of(TY_NAMES.map(S.TVar), STK_NAMES.map(S.SVar),
              st.sampled_from(("eps", "eps#0")).map(S.MEps), st.just(S.TyInt())),
    lambda inner: st.one_of(
        st.builds(lambda ps, r: S.Arrow(tuple(ps), r),
                  st.lists(inner, max_size=2), inner),
        st.builds(S.Mu, TY_NAMES, inner),
        st.builds(S.Exists, TY_NAMES, inner),
        st.builds(S.SCons, inner, inner),
        st.builds(lambda bs, t, s, q: S.CodeT(bs, (("r1", t),), s, q),
                  binders, inner, inner, inner),
    ), max_leaves=8)


def components(terms):
    instrs = st.one_of(
        st.builds(S.Mv, st.just("r1"), terms),
        st.builds(S.Unpack, TY_NAMES, st.just("r1"), terms),
        st.builds(lambda t, z: S.Protect((t,), z), type_level, STK_NAMES),
        st.builds(lambda s, z, t, b: S.ImportI("r1", s, z, t, b),
                  type_level, STK_NAMES, type_level, terms),
    )
    iseqs = st.builds(lambda hs, t, s: S.seq_of(hs, S.Halt(t, s, "r1")),
                      st.lists(instrs, max_size=3), type_level, type_level)
    return st.builds(
        lambda body, bs, code: S.Component(body, (S.HeapBinding(
            "l", "box", S.CodeBlock(bs, (), S.SNil(), S.MOut(), code)),)),
        iseqs, binders, iseqs)


def terms_over(leaves):
    return st.recursive(leaves, lambda inner: st.one_of(
        st.builds(lambda ps, b: S.Lam(tuple(ps), b),
                  st.lists(st.tuples(TM_NAMES, type_level), max_size=2,
                           unique_by=lambda p: p[0]), inner),
        st.builds(S.Let, TM_NAMES, st.none(), inner, inner),
        st.builds(S.Inst, inner, type_level),
        st.builds(S.Boundary, type_level, components(inner)),
    ), max_leaves=6)


terms = terms_over(st.one_of(TM_NAMES.map(S.Var), st.just(S.Loc("l"))))
nodes = st.one_of(type_level, terms, components(terms))
replacements = st.lists(st.one_of(
    st.tuples(st.sampled_from(("a", "a#0", "z", "z#0", "eps", "eps#0")).map(
        lambda n: (S.kind_of_name(n), n)), type_level),
    # Labels are nominal, so a component may capture one: replacements
    # name no free label.
    st.tuples(TM_NAMES.map(lambda n: (S.KIND_TERM, n)),
              terms_over(TM_NAMES.map(S.Var))),
    st.just(((S.KIND_LOC, "l"), S.Loc("m"))),
), min_size=1, max_size=3).map(dict)


@settings(max_examples=150)
@given(nodes, replacements)
def test_substitution_neither_captures_nor_loses_names(node, mapping):
    free = S.free_names(node)
    want = set(free - set(mapping))
    for key in set(mapping) & free:
        want |= S.free_names(mapping[key])
    assert S.free_names(S.substitute(node, mapping)) == want


@settings(max_examples=150)
@given(nodes)
def test_renaming_a_free_name_away_and_back_is_alpha_equal(node):
    for kind, name in S.free_names(node) - {(S.KIND_LOC, "l")}:
        away = S.substitute(node, {(kind, name): S.var_node(kind, "q9")})
        back = S.substitute(away, {(kind, "q9"): S.var_node(kind, name)})
        assert S.alpha_equal(back, node)


@settings(max_examples=60)
@given(nodes, nodes, replacements)
def test_free_names_and_alpha_equal_agree_with_the_recursive_reference(x, y, mapping):
    # x against itself, a copy, an unrelated term, a substitution of it
    # (often alpha-equal, with binders freshened) and each renaming of
    # one of its free names.
    others = [x, copy.deepcopy(x), y, S.substitute(x, mapping)]
    others += [S.substitute(x, {key: S.var_node(key[0], "q9")})
               for key in sorted(reference_syntax.free_names(x))]
    for other in others:
        assert S.free_names(other) == reference_syntax.free_names(other)
        assert S.alpha_equal(x, other) == reference_syntax.alpha_equal(x, other)
        assert S.alpha_equal(other, x) == reference_syntax.alpha_equal(other, x)


@settings(max_examples=60)
@given(nodes, replacements)
def test_substitute_equals_the_recursive_reference(x, mapping):
    # Equal, not only alpha-equal: the names substitution freshens reach
    # printed redexes and read-back values.
    mappings = [mapping] + [{key: S.var_node(key[0], "q9")}
                            for key in sorted(reference_syntax.free_names(x))]
    for m in mappings:
        got, want = S.substitute(x, m), reference_syntax.substitute(x, m)
        assert type(got) is type(want) and got == want


def test_substitute_keeps_a_heap_in_declaration_order():
    block = S.CodeBlock((), (), S.SNil(), S.MOut(), S.Jmp(S.Var("x")))
    comp = S.Component(S.Jmp(S.Loc("m")), (S.HeapBinding("m", "box", block),
                                           S.HeapBinding("l", "box", block)))
    got = S.subst_terms(comp, {"x": S.Loc("k")})
    assert got.labels() == ("m", "l")
    assert got == reference_syntax.substitute(comp, {(S.KIND_TERM, "x"): S.Loc("k")})
    assert got.heap[0].value.body == S.Jmp(S.Loc("k"))


def test_a_binder_that_heads_no_sequence_binds_nothing():
    # An unpack or protect binds its name over the rest of its sequence;
    # on its own it has no scope, so the name is not compared.
    u = S.Unpack("a", "r1", S.Reg("r2"))
    assert S.alpha_equal(u, S.Unpack("b", "r1", S.Reg("r2")))
    assert not S.alpha_equal(u, S.Unpack("a", "r3", S.Reg("r2")))
    p = S.Protect((S.TVar("a"),), "z")
    assert S.alpha_equal(p, S.Protect((S.TVar("a"),), "z2"))
    assert not S.alpha_equal(p, S.Protect((S.TVar("b"),), "z"))
    assert S.free_names(u) == frozenset() and S.free_names(p) == {(S.KIND_TYPE, "a")}


def test_subterms_is_pre_order_and_binders_follow_the_schema():
    t = S.Mu("a", S.Arrow((S.TVar("a"),), S.TVar("b")))
    assert [(type(n).__name__, sorted(b)) for n, b, _ in S.subterms(t)] == [
        ("Mu", []), ("Arrow", [(S.KIND_TYPE, "a")]),
        ("TVar", [(S.KIND_TYPE, "a")]), ("TVar", [(S.KIND_TYPE, "a")])]
    # A frame: the kinds a node binds, then its framed fields' frames.
    assert [f for _, _, f in S.subterms(t, frames=True)] == [[S.KIND_TYPE], [1], None, None]
    assert [f for _, _, f in S.subterms(t)] == [None] * 4
    code = S.CodeT(("a", "z", "eps"), (), S.SNil(), S.MOut())
    assert S.binders(code) == [(S.KIND_TYPE, "a"), (S.KIND_STACK, "z"),
                               (S.KIND_MARKER, "eps")]
    assert S.binders(S.TyInt()) == []
    # A sequence binds over its tail what its head binds over the rest.
    tail = S.Jmp(S.Reg("r1"))
    assert S.binders(S.Seq(S.Unpack("a", "r1", S.Reg("r2")), tail)) == [(S.KIND_TYPE, "a")]
    assert S.binders(S.Seq(S.ImportI("r1", S.SNil(), "z", S.TyInt(), S.IntVal(0)), tail)) == []


def test_arrow_parts_gives_a_plain_arrow_empty_prefixes():
    plain = S.Arrow((S.TyInt(),), S.TyUnit())
    stack = S.StackArrow((S.TyInt(),), (S.TyUnit(),), (), S.TyInt())
    assert S.arrow_parts(plain) == ([S.TyInt()], [], [], S.TyUnit())
    assert S.arrow_parts(stack) == ([S.TyInt()], [S.TyUnit()], [], S.TyInt())


def test_instantiate_unrolls_and_opens():
    mu = S.Mu("a", S.Arrow((S.TVar("a"),), S.TyInt()))
    assert S.instantiate(mu, mu) == S.Arrow((mu,), S.TyInt())
    ex = S.Exists("a", S.TyTuple((S.TVar("a"), S.TVar("b"))))
    assert S.instantiate(ex, S.TyInt()) == S.TyTuple((S.TyInt(), S.TVar("b")))


# -- the hash a type keeps ---------------------------------------------------


def rebuilt(x):
    """``x`` as new nodes, none of them hashed yet."""
    if isinstance(x, tuple):
        return tuple(rebuilt(item) for item in x)
    if isinstance(x, S.Node):
        return type(x)(*[rebuilt(getattr(x, f.name)) for f in dataclasses.fields(x)])
    return x


def field_hash(node) -> int:
    """The hash a frozen dataclass gives: that of its compared fields."""
    return hash(tuple(getattr(node, f.name) for f in dataclasses.fields(node) if f.compare))


def unhashed(t) -> bool:
    return all("_hash" not in vars(n) for n, _, _ in S.subterms(t))


@settings(max_examples=20)
@given(st.one_of(source_types, target_types))
def test_a_type_keeps_its_dataclass_hash_and_nothing_else(t):
    t = rebuilt(t)
    assert unhashed(t)
    nodes = [n for n, _, _ in S.subterms(t)]
    seen = [(repr(n), dataclasses.fields(n)) for n in nodes]
    text, state = pretty.ty(t), pickle.dumps(t)
    # A node comes after its parent, so in reverse its children are
    # hashed before it is.
    for n in reversed(nodes):
        assert "_hash" not in vars(n)
        want = field_hash(n)
        assert hash(n) == want and vars(n)["_hash"] == want
        assert hash(n) == want == field_hash(n)
    assert [(repr(n), dataclasses.fields(n)) for n in nodes] == seen
    assert pretty.ty(t) == text and pickle.dumps(t) == state
    fresh = rebuilt(t)
    assert t == fresh and fresh == t and unhashed(fresh)
    # A kept hash is not state: a copy hashes itself anew, as a copy in
    # another process must under another hash seed.
    for copied in (copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert copied == t and unhashed(copied)
        assert hash(copied) == hash(t)
