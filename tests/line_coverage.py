"""Every statement of ``src/ftal`` is reached by a test, or listed in
``UNREACHED`` with the reason no test reaches it.

Run from the repository root, with pytest's arguments if any:

    PYTHONPATH=src python tests/line_coverage.py -q

It runs the tests in process under a ``sys.settrace`` line collector,
written with the standard library alone.  The collector is installed
again before each phase of each test, since a test may drop or replace
the tracer, and a forked ``eq`` probe child writes the lines it reached
to a file before its ``os._exit``.  A ``python -m ftal.cli`` subprocess
is not followed: what only such a child runs is listed here with that
reason.

A statement is reached when any line it spans ran, and a function when
its body ran.  An unreached statement is reported only where the
statement around it was reached, so a function that never runs is one
entry, its ``def`` line.  An entry is keyed by module, the function or
class around it, and the statement's text: the first line of a
compound statement, the whole of a simple one, with its whitespace
collapsed.  The script exits 1 on an unreached
statement that ``UNREACHED`` does not list, and on a listed one that a
test now reaches; with pytest's own code when a test fails.
"""

from __future__ import annotations

import ast
import os
import pathlib
import sys
import tempfile
import threading
import types

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ftal"

_SUBPROCESS = ("runs only in a `python -m ftal.cli` subprocess, which the "
               "collector does not follow: a reader closing stdout early, as the "
               "closed-stdout tests and CI step do, or the module run as a script")
# (module, function, statement) -> why no test reaches it.
UNREACHED = {
    ("cli", "<module>", "def _stdout_closed() -> None:"): _SUBPROCESS,
    ("cli", "_write", "_stdout_closed()"): _SUBPROCESS,
    ("cli", "main", "_stdout_closed()"): _SUBPROCESS,
    ("cli", "<module>", "sys.exit(main())"): _SUBPROCESS,
    ("machine", "Machine._merge_component",
     'raise _Stuck(STUCK_TYPE_CONFUSION, f"heap binding {hb.label} is neither code " '
     'f"nor a tuple")'):
        "the parser binds a heap label only to code or a tuple "
        "(HAND_BUILT_STUCK in tests/test_machine.py)",
    ("pretty", "_fill", 'raise TypeError(f"not {what}: {node!r}")'):
        "a node of a class with no template: every class the parser builds has one",
    ("pretty", "iseq_lines",
     'raise TypeError(f"sequence does not end in a terminator: {s!r}")'):
        "a sequence ending in an instruction, which the parser cannot build; "
        "without the guard it would print with no error",
    ("pretty", "word_str", 'return "<value>"'):
        "a word that no rule puts in a register, on the stack or in the heap; "
        "a machine that reads an operand's register only when it is bare "
        "reports its jump through such a word as the stuck detail "
        "`jump through non-code word <value>`, not a traceback",
    ("syntax", "make_chi", 'raise ValueError(f"not a register: {r}")'):
        "a register the parser does not read: only hand-built syntax names one",
    ("typecheck", "wf", 'raise KindError("boxed values are tuples or code")'):
        "the parser reads `box` only before a tuple or a code type",
    ("typecheck", "wf", 'raise KindError("mutable cells hold tuples only")'):
        "the parser reads `ref` only before a tuple type",
    ("typecheck", "wf_return_marker",
     'raise _err("E-WFRET", "out marker at an instruction")'):
        "`wf` refuses a code type with the `out` marker before its body is checked",
    ("typecheck", "wf_return_marker",
     'raise _err("E-WFRET", f"marker {pretty.mk(q)} does not point at a continuation")'):
        "`wf` refuses a code type whose register or index marker points at no "
        "continuation before its body is checked, and a component starts with "
        "no marker",
    ("typecheck", "wf_return_marker", 'raise _err("E-WFRET", f"not a marker: {q!r}")'):
        "every marker the parser builds is one of the classes tested above",
    ("typecheck", "check_small_value", 'raise _err("E-VAL", "not a word-level value")'):
        "the parser reads an operand only as a word",
    ("typecheck", "check_instruction_sequence",
     'raise _err("E-SEQ", f"unknown instruction {ins!r}")'):
        "every instruction the parser builds has a rule",
    ("typecheck", "check_heap_fragment",
     'raise _err("E-HEAP", f"{hb.label}: code must be boxed")'):
        "the parser binds a label to code only as `box`",
    ("typecheck", "check_heap_fragment",
     'raise _err("E-HEAP", f"{hb.label}: heap binding must be code or a tuple")'):
        "the parser binds a heap label only to code or a tuple",
}


def statements(tree, source: list) -> list:
    """Each statement of ``tree`` as (its first line, the first and last
    line it runs, the name of the function or class around it, the
    index of the statement around it or None, and its text).  A function
    runs its body: its ``def`` line runs when the module is imported.  A
    compound statement's text is its first line, and a simple one's is
    all of it, with its whitespace collapsed; the n-th statement of a
    function with the text of an earlier one ends in `` #n``."""
    out = []
    todo = [(tree, "<module>", None)]
    while todo:
        node, scope, index = todo.pop()
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            for child in getattr(node, field, ()):
                if isinstance(child, (ast.ExceptHandler, ast.match_case)):
                    todo.append((child, scope, index))
                    continue
                inner, first = scope, child.lineno
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
                    if not isinstance(child, ast.ClassDef):
                        first = child.body[0].lineno
                compound = hasattr(child, "body") or hasattr(child, "cases")
                last = child.lineno if compound else child.end_lineno
                text = " ".join(" ".join(source[child.lineno - 1:last]).split())
                out.append((child.lineno, first, child.end_lineno, scope, index, text))
                todo.append((child, inner, len(out) - 1))
    seen: dict = {}
    for k in sorted(range(len(out)), key=lambda k: out[k][0]):
        *rest, scope, index, text = out[k]
        n = seen[scope, text] = seen.get((scope, text), 0) + 1
        if n > 1:
            out[k] = (*rest, scope, index, f"{text} #{n}")
    return out


def executable_lines(code: types.CodeType) -> set:
    """The lines that an instruction of ``code``, or of a code object
    nested in it, starts on."""
    lines, todo = set(), [code]
    while todo:
        c = todo.pop()
        lines.update(line for _, _, line in c.co_lines() if line is not None)
        todo.extend(k for k in c.co_consts if isinstance(k, types.CodeType))
    return lines


def unreached(path: pathlib.Path, hits: set) -> dict:
    """The unreached statements of the module at ``path`` whose parent
    statement was reached, given the lines ``hits`` that ran: each key
    (module, function, text) with the statement's line number."""
    text = path.read_text(encoding="utf-8")
    runs = executable_lines(compile(text, str(path), "exec"))
    stmts = statements(ast.parse(text), text.splitlines())
    reached = [any(line in hits for line in range(first, last + 1))
               for _, first, last, _, _, _ in stmts]
    out = {}
    for k, (line, first, last, scope, parent, key) in enumerate(stmts):
        if reached[k] or (parent is not None and not reached[parent]):
            continue
        if any(n in runs for n in range(first, last + 1)):
            out[path.stem, scope, key] = line
    return out


class Collector:
    """The lines of the files in ``paths`` that ran while it was
    installed, as {file: {line}}."""

    def __init__(self, paths):
        self.hits = {os.path.realpath(p): set() for p in paths}
        self._files: dict = {}  # co_filename -> its set in hits, or None

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        found = self._files.get(name, False)
        if found is False:
            found = self._files[name] = self.hits.get(os.path.realpath(name))
        if found is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                found.add(frame.f_lineno)
            return line
        return line

    def install(self) -> None:
        sys.settrace(self._call)
        threading.settrace(self._call)


def _follow_forks(collector: Collector, into: pathlib.Path) -> None:
    """Make a forked child write the lines it reached to a file in
    ``into`` before ``os._exit`` ends it."""
    parent, real_exit = os.getpid(), os._exit

    def _exit(status):
        if os.getpid() != parent:
            with open(into / str(os.getpid()), "w", encoding="utf-8") as fh:
                for path, lines in collector.hits.items():
                    fh.writelines(f"{path}\t{line}\n" for line in lines)
        real_exit(status)
    os._exit = _exit


def _read_forks(collector: Collector, into: pathlib.Path) -> None:
    for dump in into.iterdir():
        for row in dump.read_text(encoding="utf-8").splitlines():
            path, line = row.rsplit("\t", 1)
            collector.hits[path].add(int(line))


class _Reinstall:
    """A pytest plugin that installs the collector before each phase of
    each test."""

    def __init__(self, collector: Collector):
        self.collector = collector

    def pytest_runtest_setup(self, item):
        self.collector.install()

    def pytest_runtest_call(self, item):
        self.collector.install()

    def pytest_runtest_teardown(self, item):
        self.collector.install()


def compare(found: dict, listed: dict) -> list:
    """The lines to report: each unreached statement that ``listed`` does
    not name, and each entry of ``listed`` that is reached or has no
    reason."""
    out = [f"unreached and not listed: {key[0]}.py:{line}: {key[1]}: {key[2]}"
           for key, line in sorted(found.items(), key=lambda kv: (kv[0][0], kv[1]))
           if key not in listed]
    out += [f"listed but reached: {key}" for key in listed if key not in found]
    out += [f"listed with no reason: {key}" for key, why in listed.items() if not why]
    return out


def main(argv: list) -> int:
    modules = sorted(SRC.glob("*.py"))
    collector = Collector(modules)
    with tempfile.TemporaryDirectory() as tmp:
        into = pathlib.Path(tmp)
        _follow_forks(collector, into)
        collector.install()
        code = pytest.main(argv, plugins=[_Reinstall(collector)])
        sys.settrace(None)
        threading.settrace(None)
        _read_forks(collector, into)
    found = {}
    for path in modules:
        found.update(unreached(path, collector.hits[os.path.realpath(path)]))
    report = compare(found, UNREACHED)
    for row in report:
        print(row)
    print(f"{len(found)} unreached statements, {len(UNREACHED)} listed")
    return code or (1 if report else 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
