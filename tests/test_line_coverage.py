"""The line collector of ``tests/line_coverage.py`` on a planted module,
and its ``UNREACHED`` table against the source it names."""

import ast
import importlib.util
import os
import sys
import threading

import pytest

from line_coverage import SRC, UNREACHED, Collector, statements, compare, unreached

PLANTED = """def f(x):
    if x == 12345:
        return 0
    if x == 54321:
        return 0
    return x


def g():
    return 1
"""


def test_the_collector_reports_a_branch_no_input_takes(tmp_path):
    path = tmp_path / "planted.py"
    path.write_text(PLANTED)
    spec = importlib.util.spec_from_file_location("planted", path)
    module = importlib.util.module_from_spec(spec)
    collector = Collector([path])
    tracer, threads = sys.gettrace(), threading.gettrace()
    collector.install()
    try:
        spec.loader.exec_module(module)
        module.f(1)
    finally:
        sys.settrace(tracer)
        threading.settrace(threads)
    found = unreached(path, collector.hits[os.path.realpath(path)])
    assert found == {("planted", "f", "return 0"): 3,
                     ("planted", "f", "return 0 #2"): 5,
                     ("planted", "<module>", "def g():"): 9}
    listed = {("planted", "<module>", "def g():"): "never called",
              ("planted", "f", "return 0 #2"): "a second guard",
              ("planted", "f", "return x"): ""}
    assert compare(found, listed) == [
        "unreached and not listed: planted.py:3: f: return 0",
        "listed but reached: ('planted', 'f', 'return x')",
        "listed with no reason: ('planted', 'f', 'return x')"]


@pytest.mark.parametrize("key", UNREACHED, ids=lambda key: f"{key[0]}:{key[1]}")
def test_every_listed_statement_is_in_the_source_with_a_reason(key):
    path = SRC / f"{key[0]}.py"
    text = path.read_text(encoding="utf-8")
    stmts = statements(ast.parse(text), text.splitlines())
    assert key[1:] in {(scope, stmt) for _, _, _, scope, _, stmt in stmts}
    assert UNREACHED[key]
