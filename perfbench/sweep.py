"""Repeat the benchmark over seeds, judge its spread, and compare sets.

    python3 perfbench/sweep.py --name A                  # seeds 1-10 x 4 workloads
    python3 perfbench/sweep.py --name B --against A      # and compare with A
    python3 perfbench/sweep.py --name T --trace 1        # traced: attribution

Each run's report and result lines go to
``.perfbench_out/sweeps/<name>.jsonl``, which the set replaces.  For
every workload and end-to-end metric the summary gives the median, the
quartiles (Python's
``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, against the metric's bound in BENCHMARK.json: "steady" below
a third of the bound, "wide" up to the bound, "TOO WIDE" beyond it.

With ``--against``, the summary also gives each median's change from the
other set, flagged "WORSE" when it is worse by more than the bound, and
lists every exact count or trace digest that differs between the two
sets for the same workload and seed (drift).  With ``--trace 1`` the
runs are traced, and the summary reports attribution and tracing
overhead instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out" / "sweeps"
SEEDS = range(1, 11)


def _run_set(path: Path, bench: dict, trace: int) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.unlink(missing_ok=True)
    seconds = bench["run_seconds"]
    for w in (w["name"] for w in bench["workloads"]):
        for seed in SEEDS:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                print(f"{w} seed {seed}: exit {done.returncode}\n{done.stderr}")
                continue
            report = json.loads(lines[-2])["report"]
            result = json.loads(lines[-1])
            with path.open("a") as fh:
                fh.write(json.dumps({"report": report, "result": result}) + "\n")
            print(f"{w} seed {seed}: failed {result['failed']}/{result['attempted']}",
                  flush=True)


def _load(name: str) -> list:
    return [json.loads(line) for line in (OUT / f"{name}.jsonl").read_text().splitlines()]


def _by_workload(runs: list) -> dict:
    out: dict = {}
    for run in runs:
        out.setdefault(run["report"]["workload"], []).append(run)
    return out


def _spread(values: list) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def _summarise(runs: list, metrics: list) -> dict:
    medians = {}
    for w, wruns in _by_workload(runs).items():
        failed = sum(r["result"]["failed"] for r in wruns)
        attempted = sum(r["result"]["attempted"] for r in wruns)
        print(f"\n{w}: {len(wruns)} runs, {failed}/{attempted} operations failed")
        for m in metrics:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in wruns]
            med, q1, q3, spread = _spread(values)
            medians[(w, m["name"])] = med
            status = ("steady" if spread <= m["bound"] / 3 else
                      "wide" if spread <= m["bound"] else "TOO WIDE")
            print(f"  {m['name']:12s} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:6.2%} bound {m['bound']:.0%} {status}")
    return medians


def _summarise_traced(runs: list) -> None:
    for w, wruns in _by_workload(runs).items():
        shares = [r["result"]["metrics"]["attributed_share"]["value"] for r in wruns]
        over = [r["result"]["metrics"]["tracing.overhead_s"]["value"] for r in wruns]
        wall = [r["result"]["metrics"]["traced_wall_s"]["value"] for r in wruns]
        print(f"{w}: attributed share min {min(shares):.4f}, tracing overhead "
              f"median {statistics.median(over):.4g} s of traced wall "
              f"{statistics.median(wall):.4g} s")


def _drift(runs: list, other: list, key: str) -> list:
    ref = {(r["report"]["workload"], r["report"]["seed"]): r["report"][key]
           for r in other}
    out = []
    for r in runs:
        k = (r["report"]["workload"], r["report"]["seed"])
        if k in ref and ref[k] != r["report"][key]:
            diff = sorted(n for n in set(ref[k]) | set(r["report"][key])
                          if ref[k].get(n) != r["report"][key].get(n))
            out.append(f"{k[0]} seed {k[1]}: {diff}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--name", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--against", help="name of an earlier set to compare with")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    _run_set(OUT / f"{args.name}.jsonl", bench, args.trace)
    runs = _load(args.name)
    if args.trace:
        _summarise_traced(runs)
        key = "exact_layers"
    else:
        medians = _summarise(runs, bench["end_to_end"])
        key = "exact"
    if not args.against:
        return 0
    other = _load(args.against)
    if not args.trace:
        print(f"\nmedians against {args.against}:")
        before = {(w, m["name"]): statistics.median(
                      r["result"]["metrics"][m["name"]]["value"] for r in wruns)
                  for w, wruns in _by_workload(other).items()
                  for m in bench["end_to_end"]}
        for m in bench["end_to_end"]:
            for (w, name), med in sorted(medians.items()):
                if name != m["name"] or (w, name) not in before:
                    continue
                change = med / before[(w, name)] - 1
                worse = change if m["better"] == "lower" else -change
                flag = "WORSE" if worse > m["bound"] else "ok"
                print(f"  {w:9s} {name:12s} {change:+7.2%} (bound {m['bound']:.0%}) {flag}")
    drift = _drift(runs, other, key)
    print(f"\ndrift in {key} against {args.against}: "
          + ("none" if not drift else "\n  " + "\n  ".join(drift)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
