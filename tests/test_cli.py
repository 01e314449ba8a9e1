"""Command-line interface: every subcommand, every exit code, fuel
resolution, and machine-readable output on all paths."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from conftest import ALL_FTAL, write_bare_job
from ftal import cli, harness, machine, parser, registry
from ftal import syntax as S
from ftal.parser import ParseError
from ftal.record import replace


def corpus(name: str) -> str:
    return str(registry.program_path(name))


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_prints_type_and_stack(capsys):
    code, out, _ = run_cli(capsys, ["check", corpus("call_to_call")])
    assert code == 0
    assert out.strip() == "int; *"


def test_check_json_payload(capsys):
    code, out, _ = run_cli(capsys, ["check", "--json", corpus("jit")])
    assert code == 0
    payload = json.loads(out)
    assert payload == {"type": "int", "stack": "*", "exit_code": 0}


def test_type_error_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.ftal"
    bad.write_text("1 + ()")
    code, out, err = run_cli(capsys, ["check", str(bad)])
    assert code == 1
    assert "type error" in err


def test_kind_error_exits_one(capsys, tmp_path):
    bad = tmp_path / "kind.ftal"
    bad.write_text("entry F\nfold (mu z. int) 1\n")
    code, out, err = run_cli(capsys, ["check", str(bad)])
    assert (code, out, err) == (1, "", "type error: KindError: z cannot bind a type\n")


def test_parse_error_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.ftal"
    bad.write_text("lam (")
    code, _, err = run_cli(capsys, ["check", str(bad)])
    assert code == 2
    assert "parse error" in err


def test_missing_file_exits_two(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["check", str(tmp_path / "absent.ftal")])
    assert code == 2


def test_errors_are_json_when_asked(capsys, tmp_path):
    bad = tmp_path / "bad.ftal"
    bad.write_text("lam (")
    code, out, _ = run_cli(capsys, ["check", "--json", str(bad)])
    assert code == 2
    payload = json.loads(out)
    assert payload["exit_code"] == 2
    assert payload["error"]["kind"] == "parse"
    assert isinstance(payload["error"]["message"], str)


def test_non_decimal_digit_is_a_parse_error(capsys, tmp_path):
    # '²' is a digit to str.isdigit but not a decimal digit, so int()
    # cannot read it and it starts no token.
    bad = tmp_path / "digit.ftal"
    bad.write_text("1 + ²\n", encoding="utf-8")
    message = "1:5: unexpected character '²'"
    code, out, err = run_cli(capsys, ["check", str(bad)])
    assert code == 2 and out == ""
    assert err == f"parse error: {message}\n"
    code, out, err = run_cli(capsys, ["check", "--json", str(bad)])
    assert code == 2 and err == ""
    assert json.loads(out) == {
        "error": {"kind": "parse", "message": message}, "exit_code": 2}


# int() reads at most this many digits (0: any number), so a longer
# literal cannot be read.
_MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _MAX_DIGITS, reason="int() reads any number of digits")
@pytest.mark.parametrize("src, where", (
    ("entry F\n1 + {n}\n", "2:5"),
    ("entry T\n(\n  jmp l,\n  where\n    l -> code[]{{r1: int; *}} {n}.\n"
     "      halt[int, *] r1\n)\n", "5:29"),
), ids=["literal", "marker"])
@pytest.mark.parametrize("cmd", ["check", "run", "fmt", "trace"])
def test_an_integer_too_long_to_read_is_a_parse_error(capsys, tmp_path, src, where, cmd):
    digits = _MAX_DIGITS + 700
    bad = tmp_path / "long.ftal"
    bad.write_text(src.format(n="7" * digits))
    message = f"{where}: integer literal of {digits} digits is too long"
    code, out, err = run_cli(capsys, [cmd, str(bad)])
    assert (code, out, err) == (2, "", f"parse error: {message}\n")
    code, out, err = run_cli(capsys, [cmd, "--json", str(bad)])
    assert (code, err) == (2, "")
    assert json.loads(out) == {
        "error": {"kind": "parse", "message": message}, "exit_code": 2}


@pytest.mark.parametrize("data,message", (
    (b"1 + \xff\n", "1:5: invalid UTF-8 byte 0xff"),
    (b"-- \xc3\xa9\r\n1 +\r\n  \xc3(\n", "3:3: invalid UTF-8 byte 0xc3"),
))
def test_invalid_utf8_is_a_parse_error(capsys, tmp_path, data, message):
    bad = tmp_path / "bytes.ftal"
    bad.write_bytes(data)
    code, out, err = run_cli(capsys, ["check", str(bad)])
    assert code == 2 and out == ""
    assert err == f"parse error: {message}\n"
    code, out, err = run_cli(capsys, ["check", "--json", str(bad)])
    assert code == 2 and err == ""
    assert json.loads(out) == {
        "error": {"kind": "parse", "message": message}, "exit_code": 2}


def test_registry_reads_programs_as_utf8(monkeypatch, tmp_path):
    (tmp_path / "bytes.ftal").write_bytes(b"1 + \xff")
    monkeypatch.setattr(registry, "CORPUS_DIR", tmp_path)
    with pytest.raises(ParseError) as exc:
        registry.load_program("bytes")
    assert str(exc.value) == "1:5: invalid UTF-8 byte 0xff"


def test_nonpositive_fuel_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, ["run", "--fuel", "0",
                                    corpus("jit")])
    assert code == 2
    assert "fuel" in err


def test_run_prints_the_final_value(capsys):
    code, out, _ = run_cli(capsys, ["run", corpus("jit")])
    assert code == 0
    assert out.strip() == "2"


def test_run_reports_halting_state(capsys):
    code, out, _ = run_cli(capsys, ["run", corpus("call_to_call")])
    assert code == 0
    assert out.strip() == "halted 2; stack []"


def test_run_shows_leftover_stack(capsys):
    code, out, _ = run_cli(capsys, ["run", corpus("push7_stack_lambda")])
    assert code == 0
    assert out.strip() == "(); stack [7]"


def test_run_out_of_fuel_exits_five(capsys):
    code, out, _ = run_cli(capsys, ["run", "--fuel", "5", corpus("jit")])
    assert code == 5
    assert out.strip() == "running after 5 steps"


def test_run_json_carries_steps(capsys):
    code, out, _ = run_cli(capsys, ["run", "--json", corpus("withref")])
    payload = json.loads(out)
    assert payload["kind"] == "f-value"
    assert payload["value"] == "42"
    assert payload["steps"] == 63


def test_stuck_maps_to_exit_three():
    out = machine.Outcome("stuck", reason="bad-index", steps=4)
    assert cli._outcome_exit(out) == 3


def test_a_stuck_run_is_reported_in_full():
    # run, trace and eq check first, so only a fault of the machine shows
    # a stuck run through the CLI; its report must still be whole.
    out = machine.run_program(parser.parse_program("entry F\npi.5 (1, 2)\n"), 100)
    assert cli._outcome_payload(out) == {
        "kind": "stuck", "steps": 2, "reason": "bad-index", "detail": "proj.5"}
    assert cli._outcome_human(out) == "stuck after 2 steps: bad-index (proj.5)"
    bare = machine.Outcome("stuck", reason="halt-outside-boundary", steps=3)
    assert cli._outcome_human(bare) == "stuck after 3 steps: halt-outside-boundary"
    row = harness.observe(out, 100).render()
    assert row == {"kind": "stuck", "reason": "bad-index"}
    assert cli._obs_str(row) == "stuck (bad-index)"


def test_running_out_of_memory_exits_six(capsys, monkeypatch):
    def exhausted(prog):
        raise MemoryError
    monkeypatch.setattr(cli, "check_program", exhausted)
    code, out, err = run_cli(capsys, ["check", corpus("jit")])
    assert (code, out, err) == (6, "", "resource error: out of memory\n")


def test_trace_streams_json_lines(capsys):
    code, out, err = run_cli(capsys, ["trace", corpus("call_to_call")])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 13
    for i, line in enumerate(lines, start=1):
        rec = json.loads(line)
        assert rec["step"] == i
    assert "halted 2" in err


def test_trace_file_runs_are_byte_identical(capsys, tmp_path):
    paths = (tmp_path / "a.jsonl", tmp_path / "b.jsonl")
    for p in paths:
        code, out, _ = run_cli(
            capsys, ["trace", "--trace-out", str(p), corpus("jit")])
        assert code == 0
        assert "2" in out
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1]
    assert len(blobs[0].splitlines()) == 64


@pytest.mark.parametrize("name", ALL_FTAL)
def test_both_trace_sinks_write_the_sorted_key_json_lines(capsys, tmp_path, name):
    fuel = 3000
    code, out, _ = run_cli(capsys, ["trace", corpus(name), "--fuel", str(fuel)])
    dest = tmp_path / "trace.jsonl"
    code_file, _, _ = run_cli(capsys, ["trace", corpus(name), "--fuel", str(fuel),
                                       "--trace-out", str(dest)])
    assert code == code_file
    lines = []
    machine.run_program(registry.load_program(name), fuel, lines.append)
    assert all(line == json.dumps(json.loads(line), sort_keys=True) + "\n"
               for line in lines)
    want = "".join(lines)
    assert out == want
    assert dest.read_bytes() == want.encode()


def test_eq_agreement(capsys):
    code, out, _ = run_cli(capsys, ["eq", str(registry.job_path("basic_blocks"))])
    assert code == 0
    assert "consistent-equivalent" in out


def test_eq_difference_names_the_witness(capsys):
    code, out, _ = run_cli(
        capsys, ["eq", "--json", str(registry.job_path("identity_vs_succ"))])
    assert code == 4
    payload = json.loads(out)
    assert payload["verdict"] == "distinguished"
    assert payload["witness"] == 0


def test_eq_human_output_names_the_witness(capsys):
    code, out, _ = run_cli(capsys, ["eq", str(registry.job_path("identity_vs_succ"))])
    assert code == 4
    assert out.splitlines() == ["distinguished (witness input 0)"] + [
        f"  ! {i}: {i} vs {i + 1}" for i in range(6)]


def test_eq_fuel_flag_overrides_the_job(capsys):
    code, out, _ = run_cli(
        capsys, ["eq", "--fuel", "24", str(registry.job_path("factorial"))])
    assert code == 5
    assert "inconclusive" in out


@pytest.mark.parametrize("fuel", [[], ["--fuel", "100"]])
def test_eq_fuel_flag_keeps_stack_comparison(capsys, tmp_path, fuel):
    # The halting stacks differ only in content, which the job compares.
    job_file = write_bare_job(tmp_path, 7, 8, compare_stack=True)
    code, out, _ = run_cli(capsys, ["eq", *fuel, str(job_file)])
    assert code == 4
    assert out.splitlines()[0] == "distinguished"


def test_fmt_is_idempotent(capsys, tmp_path):
    code, first, _ = run_cli(capsys, ["fmt", corpus("call_to_call")])
    assert code == 0
    again = tmp_path / "round.ftal"
    again.write_text(first)
    code, second, _ = run_cli(capsys, ["fmt", str(again)])
    assert code == 0
    assert first == second


def test_fmt_output_reparses_to_the_same_program(capsys):
    from ftal import parser
    src = registry.program_path("factorial_t").read_text()
    code, out, _ = run_cli(capsys, ["fmt", corpus("factorial_t")])
    assert code == 0
    assert S.alpha_equal(parser.parse_program(src).main,
                         parser.parse_program(out).main)


def test_corpus_gate(capsys):
    code, out, _ = run_cli(capsys, ["corpus"])
    assert code == 0
    assert "all pass (21/21)" in out


def test_corpus_gate_fails_on_a_program_that_disagrees_with_its_reference(
        capsys, monkeypatch):
    [entry] = [e for e in registry.PROGRAMS if e.name == "basic_blocks_f1"]
    monkeypatch.setattr(registry, "PROGRAMS",
                        (replace(entry, reference=lambda v: v + 3),))
    monkeypatch.setattr(registry, "JOBS", ())
    code, out, _ = run_cli(capsys, ["corpus"])
    assert (code, out.splitlines()) == (1, [
        "pass  check basic_blocks_f1  (int) -> int; *",
        "FAIL  run   basic_blocks_f1  input 0: f-value 2, want 3",
        "FAILURES (1/2)"])


def test_a_run_row_names_the_kind_of_a_run_with_no_value():
    [entry] = [e for e in registry.PROGRAMS if e.name == "factorial_f"]
    assert registry._run_row(entry, 5) == (False, "input 0: running, want 1")


def test_corpus_json_payload(capsys):
    code, out, _ = run_cli(capsys, ["corpus", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["ok"], payload["exit_code"]) == (True, 0)
    assert len(payload["rows"]) == 21 and all(r["ok"] for r in payload["rows"])
    assert payload["rows"][0] == {"expected": "int; *", "got": "int; *",
                                  "name": "call_to_call", "ok": True, "stage": "check"}


def test_entry_flag_reads_a_headerless_component(capsys, tmp_path):
    p = tmp_path / "comp.ftal"
    p.write_text("(mv r1, 1; halt[int, *] r1)")
    assert run_cli(capsys, ["check", "--entry", "t", str(p)])[:2] == (0, "int; *\n")
    assert run_cli(capsys, ["run", "--entry", "t", str(p)])[:2] == (0, "halted 1; stack []\n")
    assert run_cli(capsys, ["fmt", "--entry", "t", str(p)])[:2] == (
        0, "entry T\n(\n  mv r1, 1;\n  halt[int, *] r1\n)\n")
    # Without the flag, a file with no header is an F program.
    code, _, err = run_cli(capsys, ["check", str(p)])
    assert code == 2
    assert err == "parse error: 1:2: expected an expression (expected expression)\n"


def test_entry_flag_reads_a_bare_expression(capsys, tmp_path):
    p = tmp_path / "sum.ftal"
    p.write_text("2 + 3")
    code, out, _ = run_cli(capsys, ["run", "--entry", "f", str(p)])
    assert code == 0
    assert out.strip() == "5"


def test_environment_fuel_default(capsys, monkeypatch):
    monkeypatch.setenv("FTAL_FUEL", "5")
    code, out, _ = run_cli(capsys, ["run", corpus("jit")])
    assert code == 5
    assert "running" in out


def test_fuel_flag_beats_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("FTAL_FUEL", "5")
    code, out, _ = run_cli(capsys, ["run", "--fuel", "100000",
                                    corpus("jit")])
    assert code == 0
    assert out.strip() == "2"


def test_bad_environment_fuel_is_ignored(capsys, monkeypatch):
    monkeypatch.setenv("FTAL_FUEL", "banana")
    code, out, _ = run_cli(capsys, ["run", corpus("jit")])
    assert code == 0
    assert out.strip() == "2"


def test_successive_commands_share_no_arguments(capsys, monkeypatch, tmp_path):
    # One parser serves every call in a process; no call sees the flags,
    # the fuel or the trace file of the one before it.
    assert cli.build_arg_parser() is cli.build_arg_parser()
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    code, out, _ = run_cli(capsys, ["trace", corpus("jit"), "--fuel", "5", "--json",
                                    "--trace-out", str(first)])
    assert (code, json.loads(out)["steps"]) == (5, 5)
    monkeypatch.setenv("FTAL_FUEL", "7")
    code, out, err = run_cli(capsys, ["trace", corpus("jit")])
    assert (code, len(out.splitlines()), err) == (5, 7, "running after 7 steps\n")
    monkeypatch.delenv("FTAL_FUEL")
    code, out, err = run_cli(capsys, ["trace", corpus("jit"), "--trace-out", str(second)])
    assert (code, out, err) == (0, "2\n", "")
    assert len(second.read_text().splitlines()) == 64
    assert len(first.read_text().splitlines()) == 5


def test_bad_job_file_is_a_parse_error(capsys, tmp_path):
    p = tmp_path / "job.json"
    p.write_text("{not json")
    code, _, err = run_cli(capsys, ["eq", str(p)])
    assert code == 2


# Job files that are not well-formed jobs, with the message each reports.
MALFORMED_JOBS = {
    "missing_field": (b'{"left": "a.ftal"}', "missing field 'right'"),
    "bad_input": (b'{"left": "a.ftal", "right": "b.ftal", "type": "int", '
                  b'"inputs": ["x"]}', "inputs must be integers"),
    "fractional_input": (b'{"left": "a.ftal", "right": "b.ftal", '
                         b'"type": "int", "inputs": [2.7]}',
                         "inputs must be integers"),
    "not_an_object": (b"[1,2]", "a job is a JSON object"),
    "type_not_a_string": (b'{"left": "a.ftal", "right": "b.ftal", "type": 5}',
                          "left, right and type must be strings"),
    "fuel_not_positive": (b'{"left": "a.ftal", "right": "b.ftal", '
                          b'"type": "int", "fuel": -5}',
                          "fuel must be a positive integer"),
    "infinite_fuel": (b'{"left": "a.ftal", "right": "b.ftal", '
                      b'"type": "int", "fuel": Infinity}',
                      "fuel must be a positive integer"),
    "compare_stack_not_a_bool": (b'{"left": "a.ftal", "right": "b.ftal", '
                                 b'"type": "int", "compare_stack": "false"}',
                                 "compare_stack must be true or false"),
    "not_utf8": (b"\xff\xfe", "'utf-8' codec can't decode byte 0xff in "
                               "position 0: invalid start byte"),
    "inputs_not_a_list": (b'{"left": "a.ftal", "right": "b.ftal", '
                          b'"type": "int", "inputs": 5}',
                          'inputs must be [n, ...] or {"range": [lo, hi]}'),
    "range_one_bound": (b'{"left": "a.ftal", "right": "b.ftal", '
                        b'"type": "int", "inputs": {"range": [1]}}',
                        "inputs range must be two integers [lo, hi]"),
    "range_a_string": (b'{"left": "a.ftal", "right": "b.ftal", '
                       b'"type": "int", "inputs": {"range": "ab"}}',
                       "inputs range must be two integers [lo, hi]"),
    "range_fractional_bound": (b'{"left": "a.ftal", "right": "b.ftal", '
                               b'"type": "int", '
                               b'"inputs": {"range": [0, 2.5]}}',
                               "inputs range must be two integers [lo, hi]"),
    "range_null": (b'{"left": "a.ftal", "right": "b.ftal", '
                   b'"type": "int", "inputs": {"range": null}}',
                   "inputs range must be two integers [lo, hi]"),
    "range_bool_bound": (b'{"left": "a.ftal", "right": "b.ftal", '
                         b'"type": "int", "inputs": {"range": [true, 3]}}',
                         "inputs range must be two integers [lo, hi]"),
    "unknown_field": (b'{"left": "a.ftal", "right": "b.ftal", '
                      b'"type": "int", "fule": 5}',
                      "unknown field 'fule'"),
    "range_unknown_key": (b'{"left": "a.ftal", "right": "b.ftal", '
                          b'"type": "int", "inputs": {"range": [1, 2], "step": 2}}',
                          "unknown field 'step' in inputs"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_JOBS))
def test_malformed_job_file_is_a_parse_error(capsys, tmp_path, name):
    data, message = MALFORMED_JOBS[name]
    p = tmp_path / "job.json"
    p.write_bytes(data)
    code, out, err = run_cli(capsys, ["eq", str(p)])
    assert code == 2 and out == ""
    assert err == f"parse error: bad job file: {message}\n"
    code, out, err = run_cli(capsys, ["eq", "--json", str(p)])
    assert code == 2 and err == ""
    assert json.loads(out) == {
        "error": {"kind": "parse", "message": f"bad job file: {message}"},
        "exit_code": 2}


def test_eq_refuses_a_type_it_cannot_probe(capsys, tmp_path):
    # Applying integers to a higher-order function would get both sides
    # stuck and report them distinguished.
    for side in ("left", "right"):
        (tmp_path / f"{side}.ftal").write_text(
            "entry F\nlam (f: (int) -> int). f(0)\n")
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"left": "left.ftal", "right": "right.ftal",
                               "type": "((int) -> int) -> int",
                               "inputs": [0, 1]}))
    message = ("bad job file: cannot probe ((int) -> int) -> int with "
               "integer inputs; the type must be (int) -> int or "
               "(int) -> unit")
    code, out, err = run_cli(capsys, ["eq", str(job)])
    assert code == 2 and out == ""
    assert err == f"parse error: {message}\n"
    code, out, err = run_cli(capsys, ["eq", "--json", str(job)])
    assert code == 2 and err == ""
    assert json.loads(out) == {
        "error": {"kind": "parse", "message": message}, "exit_code": 2}


# -- resource limits ----------------------------------------------------------

# Inputs that exhaust the interpreter's recursion depth: the parser
# descends several frames per nested lambda, and the checker one frame
# per operand of a left-nested sum.
DEEP_INPUTS = {
    "nested_lambdas": "entry F\n" + "(lam (x: int). " * 300 + "0" + ")" * 300,
    "long_sum": "entry F\n" + " + ".join(["1"] * 1000),
}


def _minus_one(name: str, tmp_path) -> str:
    """The corpus F function ``name`` applied to -1, written to a file."""
    _, _, body = registry.program_path(name).read_text().partition("entry F\n")
    path = tmp_path / f"{name}_at_minus_1.ftal"
    path.write_text(f"entry F\n({body})(-1)\n")
    return str(path)


@pytest.mark.parametrize("argv, code, err", (
    (["corpus", "--json"], 0, b""),
    (["fmt", corpus("factorial_t")], 0, b""),
    # A trace to stdout reports its outcome on stderr.
    (["trace", "factorial_t", "--fuel", "3000"], 5, b"running after 3000 steps\n"),
), ids=("corpus", "fmt", "trace"))
def test_a_closed_stdout_ends_a_command_quietly(tmp_path, argv, code, err):
    # The reader goes away before the command writes (a trace writes
    # about 400 KB, more than a pipe holds): the command still exits with
    # its own code, and writes nothing else to stderr.
    argv = [_minus_one(a, tmp_path) if a == "factorial_t" else a for a in argv]
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen([sys.executable, "-m", "ftal.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    got = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == code
    assert got == err


@pytest.mark.parametrize("name", sorted(DEEP_INPUTS))
def test_deep_program_exits_six_without_a_traceback(tmp_path, name):
    path = tmp_path / f"{name}.ftal"
    path.write_text(DEEP_INPUTS[name])
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "ftal.cli", "run", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == cli.EXIT_RESOURCE == 6
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("resource error:")
    assert len(done.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("name", sorted(DEEP_INPUTS))
def test_deep_program_json_error_payload(capsys, tmp_path, name):
    path = tmp_path / f"{name}.ftal"
    path.write_text(DEEP_INPUTS[name])
    code, out, _ = run_cli(capsys, ["run", "--json", str(path)])
    assert code == 6
    payload = json.loads(out)
    assert payload["exit_code"] == 6
    assert payload["error"]["kind"] == "resource"


# A count past a 64-bit host's index size: salloc's slots cannot be
# made, while every other count is checked against the stack, the
# register file or the tuple first.
HUGE = "99999999999999999999999999"


@pytest.mark.parametrize("cmd", ["check", "run", "trace"])
def test_salloc_past_the_index_size_exits_six(capsys, tmp_path, cmd):
    path = tmp_path / "salloc.ftal"
    path.write_text(f"entry T (salloc {HUGE}; halt[int, *] r1)\n")
    message = ("number too large for the interpreter: "
               "cannot fit 'int' into an index-sized integer")
    code, out, err = run_cli(capsys, [cmd, str(path)])
    assert (code, out, err) == (6, "", f"resource error: {message}\n")
    code, out, err = run_cli(capsys, [cmd, "--json", str(path)])
    assert (code, err) == (6, "")
    assert json.loads(out) == {
        "error": {"kind": "resource", "message": message}, "exit_code": 6}


@pytest.mark.parametrize("src", [
    f"entry T (sfree {HUGE}; halt[int, *] r1)",
    f"entry T (mv r1, 1; sld r2, {HUGE}; halt[int, *] r1)",
    f"entry T (mv r1, 1; sst {HUGE}, r1; halt[int, *] r1)",
    f"entry T (ralloc r1, {HUGE}; halt[int, *] r1)",
    f"entry T (balloc r1, {HUGE}; halt[int, *] r1)",
    f"entry F pi.{HUGE} (1, 2)",
], ids=["sfree", "sld", "sst", "ralloc", "balloc", "pi"])
def test_other_counts_past_the_index_size_are_type_errors(capsys, tmp_path, src):
    path = tmp_path / "huge.ftal"
    path.write_text(src + "\n")
    for cmd in ("check", "run", "trace"):
        code, out, err = run_cli(capsys, [cmd, str(path)])
        assert (code, out) == (1, ""), cmd
        assert err.startswith("type error: "), cmd


@pytest.mark.parametrize("inputs", ["missing", [], {"range": [5, 1]}],
                         ids=["missing", "empty", "empty_range"])
def test_eq_refuses_a_probed_job_with_no_inputs(capsys, tmp_path, inputs):
    # With nothing to probe, no row could tell the two programs apart.
    payload = {"left": corpus("identity"), "right": corpus("succ"),
               "type": "(int) -> int"}
    if inputs != "missing":
        payload["inputs"] = inputs
    job = tmp_path / "job.json"
    job.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, ["eq", str(job)])
    assert code == 2 and out == ""
    assert err == "parse error: bad job file: no inputs to probe\n"
    code, out, err = run_cli(capsys, ["eq", "--json", str(job)])
    assert code == 2 and err == ""
    assert json.loads(out) == {
        "error": {"kind": "parse", "message": "bad job file: no inputs to probe"},
        "exit_code": 2}


# 2 squared 16 times has 19729 digits, more than the 4300 that str()
# writes of an int on Python 3.11 and later.
SQUARES = "entry F\nlet a0 = 2 in\n" + "".join(
    f"let a{i} = a{i - 1} * a{i - 1} in\n" for i in range(1, 17))
HUGE_IN_VALUES = {
    "t_pack": ("entry T (\n  mv r1, 2;\n" + "  mul r1, r1, r1;\n" * 16
               + "  mv r2, pack <int, r1> as exists a. a;\n  halt[exists a. a, *] r2\n)\n",
               "pack <int, <int ~10^19728>> as exists a. a"),
    "f_tuple": (SQUARES + "(a16, 1)\n", "(<int ~10^19728>, 1)"),
    "f_closure": (SQUARES + "lam (y: int). y + a16\n", "lam (y: int). (y + <int ~10^19728>)"),
}


@pytest.mark.parametrize("name", sorted(HUGE_IN_VALUES))
def test_a_huge_integer_inside_a_value_is_abbreviated(capsys, tmp_path, name):
    src, value = HUGE_IN_VALUES[name]
    path = tmp_path / f"{name}.ftal"
    path.write_text(src)
    human = f"halted {value}; stack []\n" if src.startswith("entry T") else f"{value}\n"
    code, out, err = run_cli(capsys, ["run", str(path)])
    assert (code, out, err) == (0, human, "")
    code, out, err = run_cli(capsys, ["run", "--json", str(path)])
    assert (code, err) == (0, "")
    assert json.loads(out)["value"] == value
    code, _, err = run_cli(capsys, ["trace", str(path)])
    assert (code, err) == (0, human)
