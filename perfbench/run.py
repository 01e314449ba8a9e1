"""The ftal benchmark: one workload, one fresh process, one JSON result.

    python3 perfbench/run.py --workload corpus|pingpong|frontend|trace
                             --seed N --seconds S --trace 0|1 [--size tiny]

Run from any directory; the checkout is the parent of this file's
directory, and the program is built from its ``src/`` (nothing to
compile).  Scratch files go to ``.perfbench_out/`` in the checkout.

Load model: a closed loop with one client, one process and one thread.
The workload runs in a fresh subprocess (see worker.py).  With
``--trace 0``, SETUP_PROBES more subprocesses only set up, half before
it and half after, so that ``setup_s`` is a median over the whole run.
Workload reasons are in workloads.py, metric definitions in README.md.

Times are reported at a reference speed, to factor out neighbours on a
shared host (see ``calibrate`` in workloads.py); raw times are in the
report.  Set-up time is scaled by its own calibration job, which
compiles and runs code as an import does (see worker.py).

The run ends within DEADLINE_S: the worker starts no pass that would
likely end after the time left for the later probes (see worker.py).

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  The line before it is the
full report: seed, git sha, Python, nproc, sample counts, fail_share,
the exact counts and trace digests, and any failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus", "pingpong", "frontend", "trace")
SETUP_PROBES = 8
DEADLINE_S = 170
# Left for the probes after the worker; each takes about 0.3 s.
PROBES_AFTER_S = 15


def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _spawn(args, workdir: Path, started: float, probe: bool) -> dict:
    """Run worker.py once and return its JSON line; raise on failure."""
    end = started + DEADLINE_S
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--workdir", str(workdir),
           "--stop-by", repr(end - PROBES_AFTER_S)]
    if probe:
        cmd.append("--probe")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(end - time.monotonic(), 1))
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"worker exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def _p90(values: list) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def _times(walls: list, latencies_ms: list) -> dict:
    return {"wall_s": statistics.median(walls),
            "op_ms_p50": statistics.median(latencies_ms),
            "op_ms_p90": _p90(latencies_ms)}


def end_to_end(runs: list, res: dict) -> dict:
    """Every end-to-end value this run can give, by metric name, from the
    measuring process and the set-up probes.  Times are at reference
    speed (see worker.py)."""
    return {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        **_times(res["scaled_walls"], res["scaled_latencies_ms"]),
        "peak_rss_mb": res["peak_rss_mb"],
        # fail_share is reported as its complement, which is never 0.
        "ok_share": 1 - res["failed"] / res["attempted"],
    }


def main(argv=None) -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is for the smoke test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ftal" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src/ftal'} is missing",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = ROOT / ".perfbench_out" / args.workload

    probes = 0 if args.trace else SETUP_PROBES // 2
    try:
        runs = [_spawn(args, workdir, started, probe=True) for _ in range(probes)]
        res = _spawn(args, workdir, started, probe=False)
        runs += [res] + [_spawn(args, workdir, started, probe=True)
                         for _ in range(probes)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    if args.trace:
        values, wanted = res["layers"], bench["per_layer"]
    else:
        values, wanted = end_to_end(runs, res), bench["end_to_end"]
    unknown = [m["name"] for m in wanted if m["name"] not in values]
    if unknown:
        print(f"BENCHMARK.json names metrics this run cannot give: {unknown}",
              file=sys.stderr)
        return 1

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "size": args.size, "seconds": args.seconds, "git_sha": _git_sha(),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "samples": {"passes": len(res["walls"]),
                    "operations": len(res["latencies_ms"]),
                    "setups": len(runs)},
        "fail_share": res["failed"] / res["attempted"],
        "failures": res["failures"],
        "exact": res["exact"],
        "walls": res["walls"],
        "scaled_walls": res["scaled_walls"],
        "raw_times": _times(res["walls"], res["latencies_ms"]),
        "raw_setups": [r["raw_setup_s"] for r in runs],
    }
    if args.trace:
        report.update({k: res[k] for k in
                       ("traced_walls", "layer_drift", "missing_hooks")})
        report["exact_layers"] = {
            k: v for k, v in values.items()
            if not k.endswith(("_s", "_us", "_share"))}
    else:
        report["end_to_end"] = values
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
