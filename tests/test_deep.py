"""Programs far deeper than Python's recursion limit: one heap block of
3000 straight-line instructions, which runs to its halt and which every
syntax traversal walks to the end; terms nested 3000 deep, which every
syntax traversal walks; stack types of up to 3000 slots, which the
parser reads, the checker compares, the machine halts at, the printer
writes back and substitution rebuilds; a stack of 3000 slots that
``sld``, ``sst``, ``import`` and ``call`` use, for which the checker
builds stack cells only for the slots each rule names; a component of
3000 heap bindings, which the checker and the machine take in time
linear in their number; a sequence of 5000 terms, which the parser, the
checker and the printer walk along its spine; and 480 nested ``let``s,
which the printer writes along their bodies.

A deep result is checked by ``alpha_equal``, a walk along its spine or
its printed text, never by ``==``: a dataclass's generated equality
recurses once per nested node."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from ftal import cli, parser, pretty, typecheck
from ftal import syntax as S

N = 3000


def deep_source(n: int) -> str:
    """A component whose one block runs n instructions, then halts with
    1 in r1; every other instruction mentions the block's own label."""
    lines = ["entry T", "(", "  mv r1, 1;", "  jmp l", ", where",
             "  l -> code[]{r1: int; *} ret(int, *)."]
    lines += ["    mv r2, l;" if i % 2 else "    add r1, r1, 0;"
              for i in range(n)]
    lines += ["    halt[int, *] r1", ")"]
    return "\n".join(lines) + "\n"


def spine(iseq):
    """The instructions of a sequence, and its terminator."""
    heads = []
    while isinstance(iseq, S.Seq):
        heads.append(iseq.head)
        iseq = iseq.tail
    return heads, iseq


def moves_to(block, label):
    heads, end = spine(block.body)
    assert len(heads) == N and isinstance(end, S.Halt)
    return all(h.u == S.Loc(label) for h in heads if isinstance(h, S.Mv))


def check_run(path, prog, capsys):
    assert cli.main(["run", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "halted 1; stack []"


def check_free_names(path, prog, capsys):
    assert S.free_names(prog) == frozenset()
    assert S.free_names(prog.main.heap[0].value) == {(S.KIND_LOC, "l")}


def check_substitute(path, prog, capsys):
    block = prog.main.heap[0].value
    got = S.substitute(block, {(S.KIND_LOC, "l"): S.Loc("k"),
                               (S.KIND_STACK, "z"): S.SNil()})
    assert moves_to(got, "k")


def check_subst_terms(path, prog, capsys):
    block = prog.main.heap[0].value
    assert moves_to(S.subst_terms(block, {"x": S.IntVal(0)}), "l")


def check_rename_locations(path, prog, capsys):
    block = prog.main.heap[0].value
    assert moves_to(S.rename_locations(block, {"l": "l#0"}), "l#0")
    # The component binds l, so renaming from outside changes nothing.
    assert moves_to(S.rename_locations(prog.main, {"l": "l#0"}).heap[0].value, "l")


def check_alpha_equal(path, prog, capsys):
    assert S.alpha_equal(prog, parser.parse_program(pretty.program(prog)))
    changed = S.rename_locations(prog.main.heap[0].value, {"l": "l#0"})
    assert not S.alpha_equal(prog.main.heap[0].value, changed)


@pytest.fixture(scope="module")
def deep(tmp_path_factory):
    path = tmp_path_factory.mktemp("deep") / "deep.ftal"
    path.write_text(deep_source(N))
    return path, parser.parse_program(path.read_text())


@pytest.mark.parametrize("check", [
    check_run, check_free_names, check_substitute, check_subst_terms,
    check_rename_locations, check_alpha_equal,
], ids=lambda f: f.__name__[len("check_"):])
def test_deep_program(deep, capsys, check):
    check(*deep, capsys)


def test_deep_program_subterms(deep):
    # The walk is iterative, and the label the component binds is bound
    # at the jump to it and at each of the block's moves.
    _, prog = deep
    bound_at_loc = [b for n, b, _ in S.subterms(prog) if isinstance(n, S.Loc)]
    assert len(bound_at_loc) == 1 + N // 2
    assert all((S.KIND_LOC, "l") in b for b in bound_at_loc)


def lambda_nest(n: int, prefix: str, ref: int = 0, free=S.Var("y")) -> S.Lam:
    """n nested lambdas, the i-th binding prefix + str(i), around a body
    that adds the ref-th name to ``free``."""
    body = S.Binop("+", S.Var(f"{prefix}{ref}"), free)
    for i in reversed(range(n)):
        body = S.Lam(((f"{prefix}{i}", S.TyInt()),), body)
    return body


def sum_of(first) -> S.Tm:
    """first + 1 + ... + 1, N terms, nested to the left as a parsed sum
    is, so that ``first`` is N - 1 nodes deep."""
    for _ in range(N - 1):
        first = S.Binop("+", first, S.IntVal(1))
    return first


def test_deep_terms_compare_and_have_free_names():
    # A sum nests to the left as deep as it is long.
    text = "entry F\n" + " + ".join(["1"] * N) + "\n"
    a, b = parser.parse_program(text), parser.parse_program(text)
    assert S.alpha_equal(a, b)
    assert not S.alpha_equal(a, parser.parse_program(text[:-2] + "2\n"))
    assert S.free_names(a) == S.free_names(b) == frozenset()
    x, w = lambda_nest(N, "x"), lambda_nest(N, "w")
    assert S.alpha_equal(x, w)
    assert not S.alpha_equal(x, lambda_nest(N, "w", ref=1))
    assert S.free_names(x) == S.free_names(w) == {(S.KIND_TERM, "y")}


SLOTS = 400


def units(n: int) -> str:
    return " :: ".join(["unit"] * n)


def stack_source(n: int) -> str:
    """A component that allocates n stack slots and halts at a stack type
    that spells each of them out."""
    return f"entry T\n(\n  mv r1, 0;\n  salloc {n};\n  halt[int, {units(n)} :: *] r1\n)\n"


def test_deep_stack_type_checks_and_halts(tmp_path, capsys):
    path = tmp_path / "stack.ftal"
    path.write_text(stack_source(SLOTS))
    assert cli.main(["check", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "int; " + "unit :: " * SLOTS + "*"
    assert cli.main(["run", str(path)]) == 0
    assert capsys.readouterr().out.strip() == (
        "halted 0; stack [" + ", ".join(["()"] * SLOTS) + "]")
    assert cli.main(["run", "--json", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["kind"], payload["value"]) == ("halted", "0")
    assert payload["stack"] == ["()"] * SLOTS


@pytest.mark.parametrize("slots", [1000, 3000])
def test_long_stack_type_checks_runs_and_round_trips(tmp_path, capsys, slots):
    path = tmp_path / "stack.ftal"
    path.write_text(stack_source(slots))
    assert cli.main(["check", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "int; " + "unit :: " * slots + "*"
    assert cli.main(["run", str(path)]) == 0
    assert capsys.readouterr().out.strip() == (
        "halted 0; stack [" + ", ".join(["()"] * slots) + "]")
    assert cli.main(["fmt", str(path)]) == 0
    printed = capsys.readouterr().out
    assert S.alpha_equal(parser.parse_program(printed),
                         parser.parse_program(path.read_text()))
    again = tmp_path / "again.ftal"
    again.write_text(printed)
    assert cli.main(["fmt", str(again)]) == 0
    assert capsys.readouterr().out == printed


def deep_stack_source(n: int) -> str:
    """A component that allocates n stack slots, stores over the top one,
    imports an F term that applies a stack lambda to the top slot, and
    calls a block that takes all n slots, stores over the top one again
    and frees them; it halts with 5 in r1 and an empty stack."""
    return f"""entry T
(
  mv r1, 0;
  salloc {n};
  sld r2, 0;
  sst 0, r2;
  import r1, * as z, int TF{{ (lam [unit :: . => unit :: .](). 2)() + 3 }};
  mv ra, lret;
  call lc {{*, ret(int, *)}}
, where
  lc -> code[z, eps]{{r1: int, ra: box code[]{{r1: int; z}} eps; {units(n)} :: z}} ra.
    sld r2, 0;
    sst 0, r2;
    sfree {n};
    ret ra {{r1}},
  lret -> code[]{{r1: int; *}} ret(int, *).
    halt[int, *] r1
)
"""


@pytest.mark.parametrize("slots", [3, N])
def test_a_deep_stack_is_imported_under_called_with_and_stored_to(tmp_path, capsys, slots):
    # The same type and value at 3 slots and at N: each rule reads only
    # the slots it names, and import and call find their depth at once.
    path = tmp_path / "stack.ftal"
    path.write_text(deep_stack_source(slots))
    assert cli.main(["check", str(path)]) == 0
    assert capsys.readouterr().out == "int; *\n"
    assert cli.main(["run", str(path)]) == 0
    assert capsys.readouterr().out == "halted 5; stack []\n"


# Programs of n stack slots and about M instructions, one per stack rule
# of the checker, each with the type it checks at.
M = 100
COST_PROGRAMS = {
    "sld_sst": lambda n: (
        f"entry T\n(\n  mv r1, 0;\n  salloc {n};\n"
        + "  sld r2, 0;\n  sst 0, r2;\n" * (M // 2)
        + f"  halt[int, {units(n)} :: *] r1\n)\n",
        f"int; {units(n)} :: *"),
    "sfree": lambda n: (
        f"entry T\n(\n  mv r1, 0;\n  salloc {n + M};\n" + "  sfree 1;\n" * M
        + f"  halt[int, {units(n)} :: *] r1\n)\n",
        f"int; {units(n)} :: *"),
    "ralloc": lambda n: (
        f"entry T\n(\n  mv r1, 0;\n  salloc {n};\n"
        + "  ralloc r2, 1;\n  salloc 1;\n" * (M // 2)
        + f"  halt[int, {units(n)} :: *] r1\n)\n",
        f"int; {units(n)} :: *"),
    "protect": lambda n: (
        f"entry T\n(\n  mv r1, 0;\n  salloc {n};\n  protect unit :: ., z;\n"
        + "  mv r2, 0;\n" * M + "  halt[int, unit :: z] r1\n)\n",
        f"int; {units(n)} :: *"),
    "import": lambda n: (
        f"entry T\n(\n  salloc {n};\n  import r1, * as z, int TF{{5}};\n"
        + "  mv r2, 0;\n" * M + f"  halt[int, {units(n)} :: *] r1\n)\n",
        f"int; {units(n)} :: *"),
    "call": lambda n: (deep_stack_source(n).replace(
        "  mv ra, lret;\n", "  mv ra, lret;\n" + "  mv r2, 0;\n" * M), "int; *"),
    "marker_slot": lambda n: (
        "entry T\n(\n  mv r1, 0;\n  halt[int, *] r1\n, where\n"
        f"  lb -> code[]{{r1: int; {units(n)} :: box code[]{{r1: int; *}} ret(int, *) :: *}} {n}.\n"
        + "    sld r2, 0;\n    sst 0, r2;\n" * (M // 2)
        + f"    sfree {n};\n    sld ra, 0;\n    sfree 1;\n    ret ra {{r1}}\n)\n",
        "int; *"),
    "stack_lambda": lambda n: (
        f"entry T\n(\n  salloc {n};\n  import r1, * as z, int TF{{\n"
        "    let f = lam [unit :: . => unit :: .](). 1 in\n"
        + "    f();\n" * M + f"    5\n  }};\n  halt[int, {units(n)} :: *] r1\n)\n",
        f"int; {units(n)} :: *"),
}


@pytest.mark.parametrize("n", [500, 2000])
@pytest.mark.parametrize("name", COST_PROGRAMS)
def test_checking_builds_stack_cells_for_the_slots_named(monkeypatch, name, n):
    # Reading slots through a whole-stack list and rebuilding the chain
    # below them would build about n cells per instruction.
    src, expected = COST_PROGRAMS[name](n)
    prog = parser.parse_program(src)
    built = 0
    init = S.SCons.__init__

    def counting(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(S.SCons, "__init__", counting)
    tau, sigma = typecheck.check_program(prog)
    monkeypatch.undo()
    assert f"{pretty.ty(tau)}; {pretty.stk(sigma)}" == expected
    assert built <= 5 * (n + M)


def wide_source(n: int) -> str:
    """A component of n tuple bindings whose body moves the last one into
    r1 and halts."""
    heap = ",\n    ".join(f"t{i} -> box <{i}>" for i in range(n))
    return (f"entry T\n(\n  mv r1, t{n - 1};\n  halt[box <int>, *] r1,\n"
            f"  where\n    {heap}\n)\n")


def test_wide_heap_fragment_checks_and_halts(tmp_path, capsys):
    path = tmp_path / "wide.ftal"
    path.write_text(wide_source(N))
    assert cli.main(["check", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "box <int>; *"
    assert cli.main(["run", str(path)]) == 0
    assert capsys.readouterr().out.strip() == f"halted t{N - 1}#{N - 1}; stack []"


FOLD_A, FOLD_INT = S.Fold(S.TVar("a"), S.IntVal(1)), S.Fold(S.TyInt(), S.IntVal(1))


def test_substitution_reaches_the_bottom_of_a_deep_sum():
    ones = parser.parse_program("entry F\n" + " + ".join(["1"] * N) + "\n").main
    assert S.alpha_equal(sum_of(S.IntVal(1)), ones)
    with_x = sum_of(S.Var("x"))
    assert S.alpha_equal(S.substitute(with_x, {(S.KIND_TERM, "x"): S.IntVal(1)}), ones)
    assert S.alpha_equal(S.subst_terms(with_x, {"x": S.IntVal(1)}), ones)
    got = S.rename_locations(sum_of(S.Loc("l")), {"l": "m"})
    assert S.alpha_equal(got, sum_of(S.Loc("m")))
    got = S.instantiate(S.Exists("a", sum_of(FOLD_A)), S.TyInt())
    assert S.alpha_equal(got, sum_of(FOLD_INT))


def second_binder(lam: S.Lam) -> str:
    return lam.body.params[0][0]


@pytest.mark.parametrize("prefix,other", [("x", "w"), ("w", "x")])
def test_substitution_reaches_the_bottom_of_a_deep_lambda_nest(prefix, other):
    # The replacement names the second binder, which is freshened, and
    # the 2999 binders below it are walked under the renaming.
    capturing = S.Var(f"{prefix}1")
    got = S.substitute(lambda_nest(N, prefix), {(S.KIND_TERM, "y"): capturing})
    assert second_binder(got) == f"{prefix}1#0"
    assert S.alpha_equal(got, lambda_nest(N, other, free=capturing))
    got = S.subst_terms(lambda_nest(N, prefix), {"y": capturing})
    assert second_binder(got) == f"{prefix}1#0"
    assert S.alpha_equal(got, lambda_nest(N, other, free=capturing))
    got = S.rename_locations(lambda_nest(N, prefix, free=S.Loc("l")), {"l": "m"})
    assert S.alpha_equal(got, lambda_nest(N, other, free=S.Loc("m")))
    got = S.instantiate(S.Exists("a", lambda_nest(N, prefix, free=FOLD_A)), S.TyInt())
    assert S.alpha_equal(got, lambda_nest(N, other, free=FOLD_INT))


def test_substitution_rebuilds_a_deep_stack():
    units = S.stack_of([S.TyUnit()] * N, S.SVar("z"))
    assert S.stack_parts(S.substitute(units, {(S.KIND_STACK, "z"): S.SNil()})) == \
        ([S.TyUnit()] * N, S.SNil())
    # No pass maps a type-level kind, so the stack is returned as it is.
    assert S.subst_terms(units, {"x": S.IntVal(0)}) is units
    assert S.rename_locations(units, {"l": "m"}) is units
    got = S.instantiate(S.Exists("a", S.stack_of([S.TVar("a")] * N, S.SVar("z"))), S.TyInt())
    assert S.stack_parts(got) == ([S.TyInt()] * N, S.SVar("z"))


def test_a_long_sequence_formats_and_round_trips(tmp_path, capsys):
    # The printer walks a right-nested sequence along its second spine.
    path = tmp_path / "seq.ftal"
    path.write_text("entry F\n(" + "; ".join(["1"] * 500) + ")\n")
    assert cli.main(["fmt", str(path)]) == 0
    printed = capsys.readouterr().out
    assert S.alpha_equal(parser.parse_program(printed),
                         parser.parse_program(path.read_text()))


def test_a_5000_term_sequence_checks_runs_and_formats(tmp_path, capsys):
    # The parser reads a sequence along its spine with a loop, and the
    # checker and the printer walk it along its second spine.
    path = tmp_path / "seq.ftal"
    path.write_text("entry F\n" + "; ".join(["1"] * 5000) + "\n")
    assert cli.main(["check", str(path)]) == 0
    assert capsys.readouterr().out == "int; *\n"
    assert cli.main(["run", "--json", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["kind"], payload["value"]) == ("f-value", "1")
    assert cli.main(["fmt", str(path)]) == 0
    assert capsys.readouterr().out == path.read_text()


def test_a_sequence_prints_as_its_template_gives_it():
    # A first term that would extend to the right is parenthesized; the
    # last term, in second position, is not.
    items = ["(let x = 1 in x)", "1", "(1 + 2)", "(lam (y: int). y)"] * 25
    prog = parser.parse_program("entry F\n" + "; ".join(items) + "\n")
    assert pretty.program(prog) == (
        "entry F\n" + "; ".join(items[:-1] + ["lam (y: int). y"]) + "\n")


LETS = 480


def ftal(*argv) -> subprocess.CompletedProcess:
    """The command line run in a process of its own, whose stack is not
    under the test runner's frames."""
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "ftal.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_nested_lets_format_to_a_fixed_point(tmp_path):
    # The printer writes a let along its body with a loop, so it is not
    # what limits the depth of a let nest; the parser still recurses (C).
    path = tmp_path / "lets.ftal"
    path.write_text("entry F\n" + "".join(f"let x{i} = {i} in " for i in range(LETS))
                    + "x0\n")
    done = ftal("fmt", str(path))
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == path.read_text()
    again = tmp_path / "again.ftal"
    again.write_text(done.stdout)
    assert ftal("fmt", str(again)).stdout == done.stdout
    assert ftal("check", str(again)).stdout == "int; *\n"
    done = ftal("run", "--json", str(again))
    assert done.returncode == 0
    assert json.loads(done.stdout)["value"] == "0"
