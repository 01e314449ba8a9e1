"""The four benchmark workloads: generators, passes and reference checks.

A workload is built once at set-up from a seed and a size.  A pass runs
every one of its operations once and returns one ``Op`` per operation
it was supposed to attempt; an operation that raised or never ran comes
back with ``error`` set.  ``check`` then compares an operation's
observation with a reference that does not come from the code under
test: the registry's hand-written expectations, or values the generator
computed in Python.

Why each workload exists:

corpus    ``ftal corpus`` in process: the end-to-end path of the north
          star.  Its time is almost all machine steps in the factorial
          ``eq`` job (F and T factorial at -3 and -1 diverge to 100k
          fuel); parse and typecheck are under 1%.  Fixed input: the seed
          is recorded but changes nothing.
pingpong  F code calling an imported ``jit``-style T block k times.  Each
          iteration crosses F->T->F->T and exports a fresh lambda (two
          new heap blocks), so boundary translation, component load and
          heap growth dominate, which the other workloads barely touch.
frontend  Large generated well-typed programs: parse, check, print,
          re-parse and compare, then one short run.  Lexing dominates; a
          machine optimisation must show no change here.
trace     ``ftal trace --trace-out`` on factorial_t and factorial_f at -1:
          the machine loop with a sink attached, building records and
          serialising them.  Guards "build a trace record only when a
          sink is attached": that change should speed up corpus and
          leave this one unchanged.  Fixed input, like corpus.

Blocks in frontend are 200 instructions long.  An 800-instruction block
still runs, but a 1000-instruction block raises RecursionError in
``rename_locations`` when the boundary merges the component, so 200
leaves a wide margin.  A crash is never dropped: it counts as a failed
operation.

The tier-1 test gate is not a workload: one pass takes about a minute,
too long to repeat in every run of the benchmark.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import marshal
import random
import signal
import statistics
import time
from dataclasses import dataclass, field

from ftal import cli, machine, parser, pretty, registry, syntax, typecheck

# Sizes.  "full" is what the benchmark measures; "tiny" exists for the
# smoke test, which must run every workload in seconds.  Full operations
# take 0.1-0.2 s, so a 20-second run has over 100 of them and its p90
# has at least ten samples beyond it.
SIZES = {
    "full": {
        "pingpong_k": 80,
        "pingpong_programs": 4,
        "frontend_blocks": 5,
        "frontend_block_len": 200,
        "frontend_lets": 30,
        "frontend_programs": 4,
        # One fuel per program, chosen so that both trace commands take
        # about the same time and the pooled latency percentiles do not
        # fall into the gap between two clusters.
        "trace_fuel": {"factorial_t": 3000, "factorial_f": 8000},
    },
    "tiny": {
        "pingpong_k": 5,
        "pingpong_programs": 2,
        "frontend_blocks": 2,
        "frontend_block_len": 20,
        "frontend_lets": 5,
        "frontend_programs": 2,
        "trace_fuel": {"factorial_t": 200, "factorial_f": 200},
    },
}

# Generated values are kept inside this magnitude so that no operation
# depends on bigint arithmetic the workload did not mean to exercise.
LIMIT = 10 ** 6


# Neighbours on a shared host make the CPU up to about 1.7x slower or
# faster, for tens of milliseconds to minutes at a time, which moves
# every statistic of a run.  So while calibrating, a fixed pure-Python
# job is timed just before and just after each operation, and every
# SAMPLE_EVERY_S during it, and the operation's time is scaled to the
# reference speed at which that job takes REFERENCE_S.  The readings
# taken during an operation are left out of its time.  The job does not
# use ftal, so a faster program still shows as a faster time.
REFERENCE_S = 0.01
SAMPLE_EVERY_S = 0.1


class _Cell:
    __slots__ = ("n", "next")

    def __init__(self, n, nxt):
        self.n = n
        self.next = nxt


def calibrate() -> float:
    """Seconds for a fixed job that allocates objects, follows links and
    updates dicts, as the ftal interpreter does; about 10 ms."""
    t = time.perf_counter()
    seen: dict = {}
    cell = None
    for i in range(12000):
        cell = _Cell(i, cell if i % 50 else None)
        seen[i & 255] = (i, cell)
        if isinstance(cell.n, int) and cell.next is not None:
            seen[i & 127] = cell.next.n + len(seen)
    return time.perf_counter() - t


# Set-up is mostly importing: unmarshalling and running module bodies,
# many of them dataclasses.  Its time tracks this job's time across the
# host's fast and slow periods better than calibrate's (log-log slope 0.7
# against 0.5 in a test of 225 set-ups), so set-up is scaled by this job.
SETUP_REFERENCE_S = 0.01
_MODULE = "from dataclasses import dataclass\n" + "".join(
    f"@dataclass(frozen=True)\nclass C{i}:\n    a: int\n    b: str\n"
    f"    c: object = None\n\n"
    f"def f{i}(x, y={i}):\n    if isinstance(x, C{i}):\n"
    f"        return x.a + y\n    return [z * {i} for z in range(y)]\n\n"
    for i in range(12))


def calibrate_load() -> float:
    """Seconds to compile, marshal, unmarshal and run a fixed module of
    dataclasses and functions; about 10 ms."""
    t = time.perf_counter()
    code = marshal.loads(marshal.dumps(
        compile(_MODULE, "<calibrate>", "exec", dont_inherit=True)))
    exec(code, {"__name__": "calibrate"})
    return time.perf_counter() - t


@dataclass
class Op:
    """One attempted operation: its label, latency and what it showed.
    ``scale`` turns its latency into one at reference speed."""

    label: str
    seconds: float | None = None
    obs: dict = field(default_factory=dict)
    error: str | None = None
    scale: float = 1.0


def _raised(e: BaseException) -> str:
    return f"raised {type(e).__name__}: {str(e)[:200]}"


def scale_for(readings: list) -> float:
    """The factor that brings a time measured among these calibration
    readings to reference speed."""
    return REFERENCE_S / statistics.fmean(readings)


def _attempt(label: str, fn) -> Op:
    """Run one operation; any exception, RecursionError included, is
    recorded as its failure so the pass goes on."""
    try:
        return Op(label, obs=fn())
    except Exception as e:  # noqa: BLE001 - every failure is counted
        return Op(label, error=_raised(e))


def _timed(label: str, fn, calibrating: bool) -> Op:
    """Time one operation.  While calibrating, also take calibration
    readings before, during and after it, and set its scale."""
    if not calibrating:
        t = time.perf_counter()
        op = _attempt(label, fn)
        op.seconds = time.perf_counter() - t
        return op
    readings = [calibrate()]
    paused = 0.0

    def sample(signum, frame):
        nonlocal paused
        t = time.perf_counter()
        readings.append(calibrate())
        paused += time.perf_counter() - t

    old = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    t = time.perf_counter()
    try:
        op = _attempt(label, fn)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t
        signal.signal(signal.SIGALRM, old)
    op.seconds = elapsed - paused
    readings.append(calibrate())
    op.scale = scale_for(readings)
    return op


class Workload:
    """What every workload shares: the runner sets ``calibrating`` for
    the passes whose times are reported."""

    calibrating = False


# ---------------------------------------------------------------------------
# corpus


class Corpus(Workload):
    """``ftal corpus --json`` in process; one operation per corpus row.

    Rows are timed by wrapping the registry's three row functions; the
    wrapper also turns an exception into a failed row, so one crash does
    not skip the rows after it."""

    name = "corpus"
    # The CLI default, passed explicitly so that FTAL_FUEL cannot change
    # it.  The eq jobs take their fuel from their job files.
    FUEL = 100000
    ROW_FUNCS = {"_check_row": "check", "_run_row": "run", "_job_row": "eq"}

    def __init__(self, seed: int, size: dict, workdir):
        # The hand-written expectations, keyed like the rows.
        self.expected = {}
        for entry in registry.PROGRAMS:
            self.expected[f"check:{entry.name}"] = entry.type_text
            self.expected[f"run:{entry.name}"] = None
        for name, verdict, _ in registry.JOBS:
            self.expected[f"eq:{name}"] = verdict
        self._rows: list[Op] = []
        for attr, stage in self.ROW_FUNCS.items():
            setattr(registry, attr, self._row_hook(stage, getattr(registry, attr)))

    def _row_hook(self, stage: str, fn):
        def row(first, *rest):
            name = first if isinstance(first, str) else first.name
            label = f"{stage}:{name}"
            op = _timed(label, lambda: fn(first, *rest), self.calibrating)
            if op.error is None:
                ok, got = op.obs
                op.obs = {"ok": ok, "got": got}
                self._rows.append(op)
                return ok, got
            self._rows.append(op)
            return False, op.error
        return row

    def run_pass(self) -> list[Op]:
        self._rows = []
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(["corpus", "--json", "--fuel", str(self.FUEL)])
            report = json.loads(out.getvalue())
        except Exception as e:  # noqa: BLE001 - counted against every row
            report, code = None, None
            failure = _raised(e)
        seen = {op.label: op for op in self._rows}
        ops = []
        for label in self.expected:
            op = seen.get(label) or Op(label, error="row never ran")
            if op.error is None and report is None:
                op.error = failure
            elif op.error is None:
                op.obs["exit_code"] = code
                op.obs["reported"] = _reported_row(report, label)
            ops.append(op)
        return ops

    def check(self, op: Op) -> str | None:
        obs = op.obs
        if not obs["ok"]:
            return f"row failed: {obs['got']}"
        want = self.expected[op.label]
        if want is not None and obs["got"] != want:
            return f"got {obs['got']!r}, registry expects {want!r}"
        if obs["reported"] != {"ok": True, "got": obs["got"]}:
            return f"corpus output disagrees with the row: {obs['reported']}"
        if obs["exit_code"] != 0:
            return f"ftal corpus exited {obs['exit_code']}"
        return None

    def exact(self, op: Op) -> dict:
        return {"got": op.obs["got"]}


def _reported_row(report: dict, label: str) -> dict | None:
    stage, name = label.split(":", 1)
    for row in report["rows"]:
        if row["stage"] == stage and row["name"] == name:
            return {"ok": row["ok"], "got": row["got"]}
    return None


# ---------------------------------------------------------------------------
# pingpong

ANS_T = "box code[]{r1: int; z} eps"
INT_FN_T = f"box code[z, eps]{{ra: {ANS_T}; int :: z}} ra"
ARG_T = f"box code[z, eps]{{ra: {ANS_T}; {INT_FN_T} :: z}} ra"
JIT_T = f"box code[z, eps]{{ra: {ANS_T}; {ARG_T} :: z}} ra"


def pingpong_program(k: int, c: int, m: int) -> tuple[str, int]:
    """F code that sums jit(lam h. h(n + c)) for n = k..1, where the
    imported T block jit passes an exported T function (times m) to its
    argument.  Returns the text and the value computed in Python.

    c and m change only constants, so every seed does the same steps."""
    src = f"""entry F
(lam (jit: (((int) -> int) -> int) -> int).
  let g = fold mu a. (a) -> ((int) -> int)
            (lam (f: mu a. (a) -> ((int) -> int)).
               lam (n: int).
                 if0 n 0 ((jit(lam (h: (int) -> int). h((n + {c})))) + ((unfold f)(f)((n - 1)))))
  in (unfold g)(g)({k}))
(FT[(((int) -> int) -> int) -> int](
  mv r1, lg;
  halt[{JIT_T}, *] r1
, where
  lg -> code[z, eps]{{ra: {ANS_T}; {ARG_T} :: z}} ra.
    sld r1, 0;
    salloc 1;
    mv r2, lh;
    sst 0, r2;
    sst 1, ra;
    mv ra, lgret[z, eps];
    call r1 {{{ANS_T} :: z, 0}},
  lgret -> code[z, eps]{{r1: int; {ANS_T} :: z}} 0.
    sld ra, 0;
    sfree 1;
    ret ra {{r1}},
  lh -> code[z, eps]{{ra: {ANS_T}; int :: z}} ra.
    sld r1, 0;
    sfree 1;
    mul r1, r1, {m};
    ret ra {{r1}}
))
"""
    return src, m * sum(n + c for n in range(1, k + 1))


class PingPong(Workload):
    """Generated boundary ping-pong programs; one operation parses, checks
    and runs one program."""

    name = "pingpong"

    def __init__(self, seed: int, size: dict, workdir):
        rng = random.Random(f"pingpong:{seed}")
        k = size["pingpong_k"]
        self.programs = []
        for i in range(size["pingpong_programs"]):
            c, m = rng.randint(0, 9), rng.randint(2, 5)
            text, want = pingpong_program(k, c, m)
            self.programs.append((f"p{i}:k={k},c={c},m={m}", text, want))
        self.fuel = 10 ** 7

    def _process(self, text: str) -> dict:
        prog = parser.parse_program(text)
        tau, sigma = typecheck.check_program(prog)
        m = machine.Machine(prog)
        out = m.run(self.fuel)
        return {"type": (tau, sigma), "kind": out.kind, "value": out.value,
                "steps": out.steps, "heap_blocks": len(m.heap)}

    def run_pass(self) -> list[Op]:
        return [_timed(label, lambda t=text: self._process(t),
                       self.calibrating)
                for label, text, _ in self.programs]

    def check(self, op: Op) -> str | None:
        want = {label: w for label, _, w in self.programs}[op.label]
        return _check_int_program(op.obs, want)

    def exact(self, op: Op) -> dict:
        return {"steps": op.obs["steps"], "heap_blocks": op.obs["heap_blocks"]}


def _check_int_program(obs: dict, want: int) -> str | None:
    if obs["type"] != (syntax.TyInt(), syntax.SNil()):
        return f"checked at {obs['type']}, generator expects int; *"
    value = obs["value"]
    if obs["kind"] != "f-value" or not isinstance(value, syntax.IntVal):
        return f"ended {obs['kind']}"
    if value.n != want:
        return f"value {value.n}, Python computes {want}"
    return None


# ---------------------------------------------------------------------------
# frontend


def _operand(rng, regs: dict) -> tuple[str, int]:
    """An operand for an arithmetic instruction and its value."""
    if rng.random() < 0.5:
        n = rng.randint(0, 99)
        return str(n), n
    rt = rng.choice(sorted(regs))
    return rt, regs[rt]


def straight_line_block(rng, regs: dict, length: int) -> list[str]:
    """``length`` instructions over r1..r7 with no control flow.  regs maps
    each defined register to its value and is updated in place."""
    out: list[str] = []
    while len(out) < length:
        rd = f"r{rng.randint(1, 7)}"
        rs = rng.choice(sorted(regs))
        pick = rng.random()
        if pick < 0.1 and length - len(out) >= 4:
            out += ["salloc 1", f"sst 0, {rs}", f"sld {rd}, 0", "sfree 1"]
            regs[rd] = regs[rs]
            continue
        if pick < 0.2:
            n = rng.randint(0, 99)
            out.append(f"mv {rd}, {n}")
            regs[rd] = n
            continue
        op = rng.choice(("add", "sub", "mul"))
        if op == "mul":
            val = rng.randint(2, 3)
            text = str(val)
        else:
            text, val = _operand(rng, regs)
        result = {"add": regs[rs] + val, "sub": regs[rs] - val,
                  "mul": regs[rs] * val}[op]
        if abs(result) > LIMIT:
            n = rng.randint(0, 99)
            out.append(f"mv {rd}, {n}")
            regs[rd] = n
            continue
        out.append(f"{op} {rd}, {rs}, {text}")
        regs[rd] = result
    return out


def _let_chain(rng, names: list, vals: list, count: int) -> list[str]:
    """``count`` lets, each binding a lambda applied to earlier names."""
    lines = []
    for _ in range(count):
        i, j = rng.randrange(len(vals)), rng.randrange(len(vals))
        a, b = vals[i], vals[j]
        c = rng.randint(1, 9)
        form = rng.randrange(4)
        if form == 0:
            expr, v = f"(lam (a: int). a + {c})({names[i]})", a + c
        elif form == 1:
            expr, v = f"(lam (a: int, b: int). a - b)({names[i]}, {names[j]})", a - b
        elif form == 2:
            v = c if a == 0 else a * c
            expr = f"(lam (a: int). if0 a {c} (a * {c}))({names[i]})"
        else:
            v = a * 2 - c
            expr = f"(lam (a: int). let t = a * 2 in t - {c})({names[i]})"
        if abs(v) > LIMIT:
            expr, v = f"(lam (a: int). {c})({names[i]})", c
        name = f"x{len(names)}"
        lines.append(f"let {name} = {expr} in")
        names.append(name)
        vals.append(v)
    return lines


def frontend_program(rng, blocks: int, block_len: int, lets: int) -> tuple[str, int]:
    """A boundary whose T component is ``blocks`` straight-line blocks
    chained by jmp, followed by an F let/lambda chain.  Returns the text
    and the value computed in Python; the program's type is int; *.

    The component comes first: each F let substitutes into the rest of
    the program, and a let in front of the component would copy it."""
    seed_value = rng.randint(1, 50)
    regs = {"r1": seed_value}
    body = ["FT[int](", f"  import r1, * as z, int TF{{ {seed_value} }};",
            "  jmp l0", ", where"]
    for b in range(blocks):
        regs = {"r1": regs["r1"]}
        instrs = straight_line_block(rng, regs, block_len)
        last = "halt[int, *] r1" if b == blocks - 1 else f"jmp l{b + 1}"
        sep = "," if b < blocks - 1 else ""
        body.append(f"  l{b} -> code[]{{r1: int; *}} ret(int, *).")
        body += [f"    {ins};" for ins in instrs]
        body.append(f"    {last}{sep}")
    body.append(")")
    names, vals = ["x0"], [regs["r1"]]
    lines = ["entry F", "let x0 = " + "\n".join(body) + " in"]
    lines += _let_chain(rng, names, vals, lets)
    # The result depends on the component even if the chain forgot it.
    lines.append(f"(lam (a: int, b: int). a - b)({names[-1]}, x0)")
    return "\n".join(lines) + "\n", vals[-1] - vals[0]


class Frontend(Workload):
    """Generated well-typed programs; one operation parses, checks, prints,
    re-parses, compares and runs one program."""

    name = "frontend"

    def __init__(self, seed: int, size: dict, workdir):
        rng = random.Random(f"frontend:{seed}")
        self.programs = []
        for i in range(size["frontend_programs"]):
            text, want = frontend_program(
                rng, size["frontend_blocks"], size["frontend_block_len"],
                size["frontend_lets"])
            self.programs.append((f"p{i}", text, want))
        self.fuel = 10 ** 7

    def _process(self, text: str) -> dict:
        prog = parser.parse_program(text)
        tau, sigma = typecheck.check_program(prog)
        printed = pretty.program(prog)
        again = parser.parse_program(printed)
        same = syntax.alpha_equal(prog, again)
        out = machine.run_program(prog, self.fuel)
        return {"type": (tau, sigma), "round_trip": same, "kind": out.kind,
                "value": out.value, "steps": out.steps, "printed": printed}

    def run_pass(self) -> list[Op]:
        return [_timed(label, lambda t=text: self._process(t),
                       self.calibrating)
                for label, text, _ in self.programs]

    def check(self, op: Op) -> str | None:
        if not op.obs["round_trip"]:
            return "printed program is not alpha-equal to the original"
        want = {label: w for label, _, w in self.programs}[op.label]
        return _check_int_program(op.obs, want)

    def exact(self, op: Op) -> dict:
        return {"steps": op.obs["steps"], "printed_sha256":
                hashlib.sha256(op.obs["printed"].encode()).hexdigest()}


# ---------------------------------------------------------------------------
# trace


class Trace(Workload):
    """``ftal trace --trace-out`` on the two factorials applied to -1;
    one operation is one trace command."""

    name = "trace"
    PROGRAMS = ("factorial_t", "factorial_f")

    def __init__(self, seed: int, size: dict, workdir):
        self.fuels = size["trace_fuel"]
        self.jobs = []
        for name in self.PROGRAMS:
            text = registry.program_path(name).read_text()
            _, header, body = text.partition("entry F\n")
            if not header:
                raise ValueError(f"{name} is not an F program")
            src = workdir / f"{name}_at_minus_1.ftal"
            src.write_text(f"entry F\n({body})(-1)\n")
            self.jobs.append((name, src, workdir / f"{name}.trace.jsonl"))

    def _process(self, name: str, src, dest) -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["trace", str(src), "--trace-out", str(dest),
                             "--fuel", str(self.fuels[name]), "--json"])
        return {"exit_code": code, "payload": json.loads(out.getvalue()),
                "dest": dest}

    def run_pass(self) -> list[Op]:
        return [_timed(name, lambda j=(name, src, dest): self._process(*j),
                       self.calibrating)
                for name, src, dest in self.jobs]

    def check(self, op: Op) -> str | None:
        # Checks run after the timed pass, so hashing is not timed.  Each
        # program has its own trace file, still holding this pass's trace.
        data = op.obs["dest"].read_bytes()
        op.obs["sha256"] = hashlib.sha256(data).hexdigest()
        op.obs["bytes"] = len(data)
        fuel = self.fuels[op.label]
        if op.obs["exit_code"] != 5:
            return f"exit code {op.obs['exit_code']}, want 5 (fuel ran out)"
        steps = op.obs["payload"].get("steps")
        if steps != fuel:
            return f"{steps} steps, want the fuel {fuel}"
        return None

    def exact(self, op: Op) -> dict:
        return {"steps": op.obs["payload"]["steps"],
                "sha256": op.obs["sha256"], "bytes": op.obs["bytes"]}


WORKLOADS = {w.name: w for w in (Corpus, PingPong, Frontend, Trace)}
