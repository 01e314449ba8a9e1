"""One workload in one fresh process; prints one JSON line of raw results.

Started by run.py, never by hand: ``ru_maxrss`` is a high-water mark for
the whole process, so every workload gets a process of its own.

    worker.py --workload NAME --seed N --seconds S --trace 0|1
              --size full|tiny --stop-by MONOTONIC --workdir DIR [--probe]

Set-up time runs from this file's first statement to the end of workload
generation, so it holds ``import ftal`` and the generators but not the
interpreter's own start-up, which no version of ftal changes.  It is
scaled to reference speed by ``calibrate_load`` readings taken right
after it.  With ``--probe`` the worker stops there and reports only
set-up time.  ``--stop-by`` is a reading of CLOCK_MONOTONIC, which all
processes share.

After set-up: one untimed warm-up pass, then timed passes until
``--seconds`` have passed; untraced, at least MIN_PASSES of them.
End-to-end times are scaled to reference speed (see ``calibrate`` in
workloads.py).  With ``--trace 1`` the timed passes alternate untraced
and traced, and the last one is traced.  A pass that would likely end
after ``--stop-by`` (judged by the longest pass so far) is not started,
once there is one untraced pass and, when tracing, one traced pass; so
a slower program gives fewer passes, not a killed run.  Every pass,
warm-up included, checks every operation, and every operation must
reproduce the exact observations (step counts, digests) of the warm-up.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

import argparse  # noqa: E402 - set-up time includes these imports
import gc
import json
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MAX_FAILURES_SHOWN = 10
# Untraced runs time at least two passes, so that corpus (one pass takes
# about 14 s) always pools two latencies per row.
MIN_PASSES = 2

def _import_ftal():
    sys.path.insert(0, str(ROOT / "src"))
    import ftal
    if Path(ftal.__file__).resolve().parent != (ROOT / "src" / "ftal").resolve():
        raise SystemExit(f"imported ftal from {ftal.__file__}, not from this checkout")


class Runner:
    """Runs and checks passes; accumulates what the report needs."""

    def __init__(self, workload):
        self.wl = workload
        self.reference: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def run_pass(self, tracer=None, calibrating=False) -> tuple[float, list]:
        """Run, time and check one pass; returns its wall time and its
        operations."""
        gc.collect()
        self.wl.calibrating = calibrating
        if tracer is not None:
            tracer.install()
        t = time.perf_counter()
        try:
            ops = self.wl.run_pass()
        finally:
            wall = time.perf_counter() - t
            if tracer is not None:
                tracer.uninstall()
        for op in ops:
            self._check(op)
        return wall, ops

    def _check(self, op) -> None:
        self.attempted += 1
        why = op.error or self.wl.check(op)
        if why is None:
            seen = self.wl.exact(op)
            want = self.reference.setdefault(op.label, seen)
            if seen != want:
                why = f"not reproducible: {seen} after {want}"
        if why is not None:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_SHOWN:
                self.failures.append(f"{op.label}: {why}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), required=True)
    ap.add_argument("--stop-by", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    _import_ftal()
    import workloads
    from tracer import COUNTS, Tracer

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](
        args.seed, workloads.SIZES[args.size], workdir)
    raw_setup_s = time.monotonic() - STARTED
    scale = statistics.median(workloads.SETUP_REFERENCE_S
                              / workloads.calibrate_load() for _ in range(3))
    setup = {"raw_setup_s": raw_setup_s, "setup_s": raw_setup_s * scale}
    if args.probe:
        print(json.dumps(setup))
        return 0

    runner = Runner(wl)
    t = time.monotonic()
    runner.run_pass()  # warm-up: untimed, but checked and the reference
    longest = time.monotonic() - t
    walls, scaled_walls, latencies_ms, scaled_latencies_ms = [], [], [], []
    traced_walls, scaled_traced_sums, layers = [], [], []
    missing: set = set()
    deadline = time.perf_counter() + args.seconds
    min_passes = 1 if args.trace else MIN_PASSES
    traced = False
    while True:
        t = time.monotonic()
        if traced:
            tracer = Tracer()
            before = workloads.calibrate()
            wall, ops = runner.run_pass(tracer)
            scale = workloads.scale_for([before, workloads.calibrate()])
            traced_walls.append(wall)
            scaled_traced_sums.append(scale * sum(
                op.seconds for op in ops if op.seconds is not None))
            values = tracer.metrics()
            values["unattributed_s"] = wall - tracer.attributed_s()
            values["attributed_share"] = tracer.attributed_s() / wall
            values["traced_wall_s"] = wall
            layers.append(values)
            missing.update(tracer.missing)
        else:
            # A pass's time is the sum of its operations' times, which
            # leaves out the calibration readings.
            _, ops = runner.run_pass(calibrating=True)
            timed = [op for op in ops if op.seconds is not None]
            walls.append(sum(op.seconds for op in timed))
            scaled_walls.append(sum(op.seconds * op.scale for op in timed))
            latencies_ms += [op.seconds * 1e3 for op in timed]
            scaled_latencies_ms += [op.seconds * op.scale * 1e3 for op in timed]
        longest = max(longest, time.monotonic() - t)
        if args.trace:
            traced = not traced
        if traced:
            continue  # with tracing, stop only after a traced pass
        if time.perf_counter() >= deadline and len(walls) >= min_passes:
            break
        if time.monotonic() + longest > args.stop_by:
            break

    result = {
        **setup,
        "walls": walls,
        "scaled_walls": scaled_walls,
        "latencies_ms": latencies_ms,
        "scaled_latencies_ms": scaled_latencies_ms,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "exact": runner.reference,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        result["layers"] = _average(layers)
        # Both kinds of pass as the sum of their operations' times, at
        # reference speed.
        result["layers"]["tracing.overhead_s"] = (
            statistics.median(scaled_traced_sums)
            - statistics.median(scaled_walls))
        result["layer_drift"] = {
            k: [v[k] for v in layers] for k in COUNTS
            if len({v[k] for v in layers}) > 1}
        result["traced_walls"] = traced_walls
        result["missing_hooks"] = sorted(missing)
    print(json.dumps(result, sort_keys=True))
    return 0


def _average(layers: list) -> dict:
    return {k: statistics.fmean(v[k] for v in layers) for k in layers[0]}


if __name__ == "__main__":
    sys.exit(main())
