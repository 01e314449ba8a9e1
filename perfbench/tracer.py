"""Per-layer spans for the traced run, recorded from the benchmark alone.

Nothing under ``src/`` knows about tracing.  ``Tracer.install`` rebinds
the names a calling module imported from another module (for example
``ftal.machine.substitute`` or ``ftal.cli.json``) and wraps a few
``Machine`` methods; ``uninstall`` puts the originals back.  Only the
caller's binding is wrapped, so a span marks a call from one module into
another and recursion inside a module is never wrapped.

Spans are not stored one by one: a million-step run would hold a million
of them.  Each span name keeps its call count and self time (its duration
minus the time of the spans it caused), which is all the report uses.
"""

from __future__ import annotations

import time
from collections import defaultdict

from ftal import cli, harness, machine, parser, pretty, registry, syntax, typecheck

# (owner, attribute, span name): plain call-through spans.
PLAN = (
    (cli, "main", "cli.main"),
    (registry, "run_all", "registry.run_all"),
    (registry, "_check_row", "registry.row"),
    (registry, "_run_row", "registry.row"),
    (registry, "_job_row", "registry.row"),
    (parser, "parse_program", "parser.parse_program"),
    (parser, "parse_type", "parser.parse_type"),
    (typecheck, "check_program", "typecheck.check_program"),
    (cli, "check_program", "typecheck.check_program"),
    (registry, "check_program", "typecheck.check_program"),
    (harness, "check_program", "typecheck.check_program"),
    (pretty, "program", "pretty.program"),
    (syntax, "alpha_equal", "syntax.alpha_equal"),
    (harness, "alpha_equal", "syntax.alpha_equal"),
    (harness, "run_job", "harness.run_job"),
    (machine, "substitute", "syntax.substitute"),
    (machine, "subst_terms", "syntax.subst_terms"),
    (machine, "rename_locations", "syntax.rename_locations"),
    (machine, "export_value", "boundary.export_value"),
    (machine, "import_value", "boundary.import_value"),
    (machine.Machine, "__init__", "machine.init"),
    (machine.Machine, "_merge_component", "machine.load"),
)

# Spans with their own wrappers below.
SPECIAL = ("parser.lex", "pretty.redex", "machine.step.T", "machine.step.F",
           "machine.run", "cli.trace_sink", "cli.trace_serialise")
SPANS = tuple(dict.fromkeys([name for _, _, name in PLAN] + list(SPECIAL)))

# Exact counts; peak_stack_depth is a maximum, the rest are sums.
COUNTS = ("parser.tokens", "machine.steps.T", "machine.steps.F",
          "machine.jumps", "machine.crossings", "machine.heap_cells",
          "machine.peak_stack_depth", "cli.trace_bytes")

JUMPS = ("jmp", "call", "ret")
CROSSINGS = ("boundary", "halt")


class _Proxy:
    """Stands in for a module that a caller imported: the names given
    are replaced, every other name is the module's own."""

    def __init__(self, module, **overrides):
        self.__dict__.update(overrides)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Self time and calls per span name, plus exact counts, for the
    passes run between ``install`` and ``uninstall``."""

    def __init__(self):
        self.self_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.counts: dict = dict.fromkeys(COUNTS, 0)
        self.missing: list = []
        # Open spans, innermost last: [name, start, seconds in children].
        self._stack: list = []
        self._undo: list = []

    def _close(self, frame) -> None:
        dur = time.perf_counter() - frame[1]
        self._stack.pop()
        self.self_s[frame[0]] += dur - frame[2]
        self.calls[frame[0]] += 1
        if self._stack:
            self._stack[-1][2] += dur

    def wrap(self, name: str, fn):
        stack, close, clock = self._stack, self._close, time.perf_counter

        def spanned(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame)
        return spanned

    def _rebind(self, owner, attr: str, make) -> None:
        if not hasattr(owner, attr):
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        old = getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, make(old))

    def install(self) -> None:
        for owner, attr, name in PLAN:
            self._rebind(owner, attr, lambda fn, n=name: self.wrap(n, fn))
        self._rebind(parser, "lex", self._lex)
        self._rebind(machine, "pretty", lambda mod: _Proxy(
            mod, tm=self.wrap("pretty.redex", mod.tm),
            instr=self.wrap("pretty.redex", mod.instr)))
        self._rebind(cli, "json", lambda mod: _Proxy(mod, dumps=self._dumps(mod.dumps)))
        self._rebind(machine.Machine, "step", self._step)
        self._rebind(machine.Machine, "run", self._run)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- wrappers that also count ------------------------------------------

    def _lex(self, lex):
        spanned = self.wrap("parser.lex", lex)

        def counted(src):
            toks = spanned(src)
            self.counts["parser.tokens"] += len(toks)
            return toks
        return counted

    def _dumps(self, dumps):
        """json.dumps as cli calls it: a span only inside the trace sink."""
        spanned = self.wrap("cli.trace_serialise", dumps)

        def serialise(obj, **kwargs):
            if not (self._stack and self._stack[-1][0] == "cli.trace_sink"):
                return dumps(obj, **kwargs)
            text = spanned(obj, **kwargs)
            self.counts["cli.trace_bytes"] += len(text) + 1
            return text
        return serialise

    def _step(self, step):
        stack, close, clock, counts = (self._stack, self._close,
                                       time.perf_counter, self.counts)
        iseq = syntax.ISeq

        def traced_step(m):
            # The machine's own rule: a T step has an instruction
            # sequence in focus.
            name = "machine.step.T" if isinstance(m.focus, iseq) else "machine.step.F"
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                record = step(m)
            finally:
                close(frame)
            if record is not None:
                counts["machine.steps." + record["lang"]] += 1
                jump = record["jump"]
                if jump in JUMPS:
                    counts["machine.jumps"] += 1
                elif jump in CROSSINGS:
                    counts["machine.crossings"] += 1
                if record["stack_depth"] > counts["machine.peak_stack_depth"]:
                    counts["machine.peak_stack_depth"] = record["stack_depth"]
            return record
        return traced_step

    def _run(self, run):
        spanned = self.wrap("machine.run", run)

        def traced_run(m, fuel, trace=None):
            if trace is not None:
                trace = self.wrap("cli.trace_sink", trace)
            out = spanned(m, fuel, trace)
            self.counts["machine.heap_cells"] += len(m.heap)
            return out
        return traced_run

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer value this tracer can give, by metric name."""
        out = dict(self.counts)
        for span in SPANS:
            s, n = self.self_s.get(span, 0.0), self.calls.get(span, 0)
            out[f"{span}.self_s"] = s
            out[f"{span}.calls"] = n
            out[f"{span}.self_us"] = s / n * 1e6 if n else 0.0
        return out

    def attributed_s(self) -> float:
        return sum(self.self_s.values())

