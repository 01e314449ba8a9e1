"""Records: the syntax nodes, the machine's outcome and frames, the
harness's observations and jobs and the registry's entries. Each keeps
its repr text, its keyword defaults, equality by class and then fields,
the hash of its field tuple when frozen, refusal to assign or delete a
frozen field, and deep copy and pickling; and importing ftal loads none
of ``dataclasses``, ``inspect`` or ``typing``."""

import copy
import itertools
import math
import pathlib
import pickle
import subprocess
import sys

import pytest

from ftal import harness, machine, registry
from ftal import syntax as S
from ftal.record import MutableRecord, replace

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

I, U = S.TyInt(), S.TyUnit()
halt = S.Halt(I, S.SNil(), "r1")
code = S.CodeT(("z", "eps"), (("r1", I),), S.SVar("z"), S.MEps("eps"))
comp = S.Component(S.Seq(S.Mv("r1", S.IntVal(7)), halt),
                   (S.HeapBinding("l", "ref", S.TupleVal((S.IntVal(1),))),))
job = harness.EquivJob(pathlib.PurePosixPath("a.ftal"), pathlib.PurePosixPath("b.ftal"),
                       "int", (0, 1), 100)

# One record of each class, with its repr: the text a checker message
# that names a node (``{ins!r}``) shows.
SAMPLES = [
    (S.TVar("a"),
     "TVar(name='a')"),
    (S.TyUnit(),
     'TyUnit()'),
    (S.TyInt(),
     'TyInt()'),
    (S.Arrow((I,), U),
     'Arrow(params=(TyInt(),), ret=TyUnit())'),
    (S.StackArrow((I,), (U,), (), I),
     'StackArrow(params=(TyInt(),), phi_in=(TyUnit(),), phi_out=(), ret=TyInt())'),
    (S.TyTuple((I, S.TVar("b"))),
     "TyTuple(items=(TyInt(), TVar(name='b')))"),
    (S.Mu("a", S.Arrow((S.TVar("a"),), I)),
     "Mu(var='a', body=Arrow(params=(TVar(name='a'),), ret=TyInt()))"),
    (S.Exists("b", S.TyTuple(())),
     "Exists(var='b', body=TyTuple(items=()))"),
    (S.Ref(S.TyTuple((I,))),
     'Ref(psi=TyTuple(items=(TyInt(),)))'),
    (S.Box(code),
     "Box(psi=CodeT(binders=('z', 'eps'), chi=(('r1', TyInt()),),"
     " sigma=SVar(name='z'), q=MEps(name='eps')))"),
    (code,
     "CodeT(binders=('z', 'eps'), chi=(('r1', TyInt()),), sigma=SVar(name='z'),"
     " q=MEps(name='eps'))"),
    (S.SNil(),
     'SNil()'),
    (S.SVar("z"),
     "SVar(name='z')"),
    (S.SCons(I, S.SNil()),
     'SCons(head=TyInt(), tail=SNil())'),
    (S.MReg("ra"),
     "MReg(reg='ra')"),
    (S.MIdx(0),
     'MIdx(idx=0)'),
    (S.MEps("eps"),
     "MEps(name='eps')"),
    (S.MHalt(I, S.SNil()),
     'MHalt(tau=TyInt(), sigma=SNil())'),
    (S.MOut(),
     'MOut()'),
    (S.Var("x"),
     "Var(name='x')"),
    (S.IntVal(-3),
     'IntVal(n=-3)'),
    (S.UnitVal(),
     'UnitVal()'),
    (S.Binop("+", S.Var("x"), S.IntVal(1)),
     "Binop(op='+', left=Var(name='x'), right=IntVal(n=1))"),
    (S.If0(S.IntVal(0), S.IntVal(1), S.IntVal(2)),
     'If0(cond=IntVal(n=0), then=IntVal(n=1), els=IntVal(n=2))'),
    (S.Lam((("x", I),), S.Var("x"), ((I,), ())),
     "Lam(params=(('x', TyInt()),), body=Var(name='x'), stack=((TyInt(),), ()))"),
    (S.App(S.Var("f"), (S.IntVal(1),)),
     "App(fn=Var(name='f'), args=(IntVal(n=1),))"),
    (S.TupleVal((S.IntVal(1), S.UnitVal())),
     'TupleVal(items=(IntVal(n=1), UnitVal()))'),
    (S.Proj(0, S.Var("t")),
     "Proj(idx=0, e=Var(name='t'))"),
    (S.Fold(S.Mu("a", S.TVar("a")), S.Var("v")),
     "Fold(ann=Mu(var='a', body=TVar(name='a')), e=Var(name='v'))"),
    (S.Unfold(S.Var("v")),
     "Unfold(e=Var(name='v'))"),
    (S.Let("x", None, S.IntVal(1), S.Var("x")),
     "Let(var='x', ann=None, rhs=IntVal(n=1), body=Var(name='x'))"),
    (S.SeqE(S.IntVal(1), S.IntVal(2)),
     'SeqE(first=IntVal(n=1), second=IntVal(n=2))'),
    (S.Boundary(I, comp),
     "Boundary(ann=TyInt(), comp=Component(body=Seq(head=Mv(rd='r1', u=IntVal(n=7)),"
     " tail=Halt(ann=TyInt(), sigma=SNil(), reg='r1')), heap=(HeapBinding(label='l',"
     " nu='ref', value=TupleVal(items=(IntVal(n=1),))),)))"),
    (S.Reg("r1"),
     "Reg(name='r1')"),
    (S.Loc("l"),
     "Loc(name='l')"),
    (S.Pack(I, S.Reg("r1"), S.Exists("a", S.TVar("a"))),
     "Pack(wit=TyInt(), val=Reg(name='r1'), ann=Exists(var='a', body=TVar(name='a')))"),
    (S.Inst(S.Loc("l"), S.SNil()),
     "Inst(val=Loc(name='l'), omega=SNil())"),
    (S.Aop("add", "r1", "r2", S.IntVal(1)),
     "Aop(op='add', rd='r1', rs='r2', u=IntVal(n=1))"),
    (S.Bnz("r1", S.Loc("l")),
     "Bnz(r='r1', u=Loc(name='l'))"),
    (S.Ld("r1", "r2", 0),
     "Ld(rd='r1', rs='r2', idx=0)"),
    (S.St("r1", 1, "r2"),
     "St(rd='r1', idx=1, rs='r2')"),
    (S.Ralloc("r1", 2),
     "Ralloc(rd='r1', n=2)"),
    (S.Balloc("r2", 1),
     "Balloc(rd='r2', n=1)"),
    (S.Mv("r1", S.IntVal(7)),
     "Mv(rd='r1', u=IntVal(n=7))"),
    (S.Salloc(2),
     'Salloc(n=2)'),
    (S.Sfree(1),
     'Sfree(n=1)'),
    (S.Sld("r1", 0),
     "Sld(rd='r1', idx=0)"),
    (S.Sst(0, "r1"),
     "Sst(idx=0, rs='r1')"),
    (S.Unpack("a", "r1", S.Reg("r2")),
     "Unpack(tv='a', rd='r1', u=Reg(name='r2'))"),
    (S.UnfoldI("r1", S.Reg("r1")),
     "UnfoldI(rd='r1', u=Reg(name='r1'))"),
    (S.Protect((I,), "z"),
     "Protect(phi=(TyInt(),), zeta='z')"),
    (S.ImportI("r1", S.SNil(), "z", I, S.IntVal(1)),
     "ImportI(rd='r1', sigma0=SNil(), zeta='z', ann=TyInt(), body=IntVal(n=1))"),
    (S.Seq(S.Sfree(1), halt),
     "Seq(head=Sfree(n=1), tail=Halt(ann=TyInt(), sigma=SNil(), reg='r1'))"),
    (S.Jmp(S.Loc("l")),
     "Jmp(u=Loc(name='l'))"),
    (S.Call(S.Loc("l"), S.SNil(), S.MIdx(0)),
     "Call(u=Loc(name='l'), sigma0=SNil(), qret=MIdx(idx=0))"),
    (S.Ret("ra", "r1"),
     "Ret(r='ra', r2='r1')"),
    (halt,
     "Halt(ann=TyInt(), sigma=SNil(), reg='r1')"),
    (S.CodeBlock(("z",), (("ra", I),), S.SVar("z"), S.MReg("ra"), halt),
     "CodeBlock(binders=('z',), chi=(('ra', TyInt()),), sigma=SVar(name='z'),"
     " q=MReg(reg='ra'), body=Halt(ann=TyInt(), sigma=SNil(), reg='r1'))"),
    (S.HeapBinding("l", "box", S.TupleVal(())),
     "HeapBinding(label='l', nu='box', value=TupleVal(items=()))"),
    (comp,
     "Component(body=Seq(head=Mv(rd='r1', u=IntVal(n=7)), tail=Halt(ann=TyInt(),"
     " sigma=SNil(), reg='r1')), heap=(HeapBinding(label='l', nu='ref',"
     ' value=TupleVal(items=(IntVal(n=1),))),))'),
    (S.Program("F", S.IntVal(1)),
     "Program(entry='F', main=IntVal(n=1))"),
    (machine.Outcome("running"),
     "Outcome(kind='running', value=None, stack=(), reason='', detail='', steps=0)"),
    (machine.Outcome("halted", S.IntVal(1), (S.UnitVal(),), steps=4),
     "Outcome(kind='halted', value=IntVal(n=1), stack=(UnitVal(),), reason='',"
     " detail='', steps=4)"),
    (harness.Observation("running", fuel=9),
     "Observation(kind='running', value=None, fuel=9, reason='', stack=None)"),
    (harness.Observation("terminated", S.IntVal(2), stack=()),
     "Observation(kind='terminated', value=IntVal(n=2), fuel=0, reason='', stack=())"),
    (job,
     "EquivJob(left=PurePosixPath('a.ftal'), right=PurePosixPath('b.ftal'),"
     " type_text='int', inputs=(0, 1), fuel=100, compare_stack=False)"),
    (registry.ProgramEntry("f", "(int) -> int; *", "applied", inputs=(0,),
                           reference=math.factorial),
     "ProgramEntry(name='f', type_text='(int) -> int; *', run_kind='applied',"
     ' value=None, stack_depth=0, inputs=(0,),'
     ' reference=<built-in function factorial>)'),
    (machine.FrBinop("+", S.IntVal(1), None, None),
     "FrBinop(op='+', left=IntVal(n=1), right=None, scope=None)"),
    (machine.FrIf0(S.IntVal(1), S.IntVal(2), ("x", S.IntVal(3), None)),
     "FrIf0(then=IntVal(n=1), els=IntVal(n=2), scope=('x', IntVal(n=3), None))"),
    (machine.FrApp(None, (S.IntVal(1),), [], None),
     'FrApp(fn=None, args=(IntVal(n=1),), done=[], scope=None)'),
    (machine.FrTuple((S.IntVal(1),), [S.IntVal(0)], None),
     'FrTuple(items=(IntVal(n=1),), done=[IntVal(n=0)], scope=None)'),
    (machine.FrProj(1),
     'FrProj(idx=1)'),
    (machine.FrFold(S.Mu("a", S.TVar("a"))),
     "FrFold(ann=Mu(var='a', body=TVar(name='a')))"),
    (machine.FrUnfold(),
     'FrUnfold()'),
    (machine.FrLet("x", S.Var("x"), None),
     "FrLet(var='x', body=Var(name='x'), scope=None)"),
    (machine.FrSeq(S.IntVal(1), None),
     'FrSeq(second=IntVal(n=1), scope=None)'),
    (machine.FrBoundary(I),
     'FrBoundary(ann=TyInt())'),
    (machine.FrImport("r1", I, halt, None),
     "FrImport(rd='r1', ann=TyInt(), rest=Halt(ann=TyInt(), sigma=SNil(), reg='r1'),"
     ' scope=None)'),
]
FRAMES = {c for c in vars(machine).values()
          if isinstance(c, type) and issubclass(c, MutableRecord) and c is not MutableRecord}


def sample_id(pair) -> str:
    return type(pair[0]).__name__


def test_every_record_class_has_a_sample():
    classes = [type(x) for x, _ in SAMPLES]
    assert set(classes) == {*S.SCHEMA, *FRAMES, machine.Outcome, harness.Observation,
                            harness.EquivJob, registry.ProgramEntry}


@pytest.mark.parametrize("pair", SAMPLES, ids=sample_id)
def test_a_record_prints_its_class_and_fields(pair):
    x, text = pair
    assert repr(x) == text


@pytest.mark.parametrize("pair", SAMPLES, ids=sample_id)
def test_a_record_survives_deep_copy_and_pickling(pair):
    x, text = pair
    for got in (copy.deepcopy(x), pickle.loads(pickle.dumps(x)), copy.copy(x)):
        assert type(got) is type(x) and got == x and repr(got) == text


@pytest.mark.parametrize("pair", [p for p in SAMPLES if type(p[0]) not in FRAMES],
                         ids=sample_id)
def test_a_frozen_record_refuses_assignment_and_deletion(pair):
    x, text = pair
    assert hash(x) == hash(tuple(getattr(x, n) for n in x._fields))
    for name in (*x._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert repr(x) == text and not hasattr(x, "extra")


def test_a_frame_is_a_mutable_record_of_slots():
    for cls in FRAMES:
        frame = cls(*range(len(cls._fields)))
        assert not hasattr(frame, "__dict__") and cls.__slots__ == cls._fields
        with pytest.raises(TypeError):
            hash(frame)
        for name in cls._fields:
            setattr(frame, name, "new")
        assert frame == cls(*["new"] * len(cls._fields))
    frame = machine.FrProj(1)
    with pytest.raises(AttributeError):
        frame.extra = 2


def test_records_of_different_classes_with_equal_fields_are_unequal():
    assert S.TyInt() != S.SNil() and S.MOut() != S.UnitVal()
    assert S.Reg("r1") != S.Loc("r1") != S.Var("r1") != S.Reg("r1")
    values = [object() for _ in range(5)]
    for a, b in itertools.combinations({*S.SCHEMA, *FRAMES}, 2):
        if len(a._fields) == len(b._fields):
            x, y = a(*values[:len(a._fields)]), b(*values[:len(b._fields)])
            assert x != y and y != x and not x == y, (a, b)


def test_outcome_observation_and_job_keep_their_keyword_defaults():
    assert machine.Outcome("running") == machine.Outcome(
        kind="running", value=None, stack=(), reason="", detail="", steps=0)
    assert machine.Outcome("stuck", reason="r", steps=3) == machine.Outcome(
        "stuck", None, (), "r", "", 3)
    assert harness.Observation("stuck", reason="r") == harness.Observation(
        kind="stuck", value=None, fuel=0, reason="r", stack=None)
    assert job == harness.EquivJob(
        type_text="int", left=job.left, right=job.right, inputs=(0, 1), fuel=100,
        compare_stack=False)
    entry = registry.ProgramEntry("f", "int; *", "value")
    assert (entry.value, entry.stack_depth, entry.inputs, entry.reference) == (None, 0, (), None)
    with pytest.raises(TypeError):
        machine.Outcome()
    with pytest.raises(TypeError):
        machine.Outcome("running", fuel=1)


def test_replace_sets_only_the_fields_it_names():
    assert replace(job, fuel=7) == harness.EquivJob(job.left, job.right, "int", (0, 1), 7)
    assert replace(S.Lam((), S.UnitVal()), body=S.IntVal(1)) == S.Lam((), S.IntVal(1), None)
    with pytest.raises(TypeError):
        replace(job, steps=1)


def test_importing_ftal_loads_no_dataclasses_inspect_or_typing():
    # Without site, which may import typing itself.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import ftal.cli, ftal.registry; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
