"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload once at the tiny size, untraced and traced, and
asserts that every metric BENCHMARK.json names is printed with its unit,
that no operation failed, and that the traced run attributes at least
90% of its wall time to named layers.  Then it checks that the benchmark
refuses to run, and prints no result, in a directory that holds only
BENCHMARK.json and the benchmark.  Corpus cannot shrink (its eq jobs
carry their own fuel), so it runs at full size and takes most of the
time, about two minutes in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus", "pingpong", "frontend", "trace")


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=200)


def check_workload(bench: dict, workload: str, trace: int) -> None:
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, f"{workload}: exit {done.returncode}\n{done.stderr}"
    lines = done.stdout.strip().splitlines()
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert report["fail_share"] == 0
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}, got
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
    if trace:
        share = result["metrics"]["attributed_share"]["value"]
        assert share >= 0.9, f"{workload}: only {share:.1%} attributed"
        assert not report["missing_hooks"], report["missing_hooks"]
        assert not report["layer_drift"], report["layer_drift"]
    print(f"ok  {workload:9s} trace={trace}  {result['attempted']} operations")


def check_refuses_without_program() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = _run(bare, "pingpong", 0)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0, "ran without a program"
    assert '"metrics"' not in done.stdout, done.stdout
    print("ok  refuses to run without src/ftal")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_workload(bench, workload, trace)
    check_refuses_without_program()
    return 0


if __name__ == "__main__":
    sys.exit(main())
