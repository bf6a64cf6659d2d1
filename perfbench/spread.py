#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs the benchmark command from BENCHMARK.json once per seed on each named
workload and prints, per metric, the median of the values and the distance
between their first and third quartiles as a share of that median (the
figure each end-to-end metric's bound is compared against). Every
end-to-end metric counts, setup_s included.

With --sets 2 the whole set of runs is made twice, back to back with the
same seeds, and each end-to-end metric's second median is compared with
its first: the change, in the metric's worse direction, as a share of the
first median must stay within the bound.

    python3 perfbench/spread.py --runs 10 [--sets 2] [--trace 0|1] [--values] [workload ...]

Run it from the repository root. With no workload named, every workload in
BENCHMARK.json is run.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_set(bench, workload, args):
    """Each metric's values over one set of runs."""
    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"{workload} seed {seed}: {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return values


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--values", action="store_true", help="also print every run's value")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    worst_spread, worst_drift = 0.0, 0.0
    for w in workloads:
        sets = [run_set(bench, w, args) for _ in range(args.sets)]
        for k, values in enumerate(sets):
            print(f"== {w} set {k + 1} ({args.runs} runs)")
            for name, vs in values.items():
                med = statistics.median(vs)
                q = statistics.quantiles(vs, n=4)
                spread = (q[2] - q[0]) / med if med else 0.0
                m = e2e.get(name)
                if m is not None:
                    worst_spread = max(worst_spread, spread / m["bound"])
                note = f"  (bound {m['bound']})" if m else ""
                print(f"  {name:<44} median {med:<14.6g} spread {spread:7.2%}{note}")
                if args.values:
                    print("      " + " ".join(f"{v:.6g}" for v in vs))
        for k in range(1, len(sets)):
            print(f"== {w} set {k + 1} against set 1")
            for name, m in e2e.items():
                first = statistics.median(sets[0][name])
                later = statistics.median(sets[k][name])
                change = (later - first) / first if first else 0.0
                worse = change if m["better"] == "lower" else -change
                worst_drift = max(worst_drift, worse / m["bound"])
                print(f"  {name:<44} {first:<12.6g} -> {later:<12.6g} change {change:+7.2%}"
                      f"  (bound {m['bound']})")
    if args.trace == "0":
        print(f"largest spread as a share of its bound: {worst_spread:.2f}")
        if args.sets > 1:
            print(f"largest worsening between sets as a share of its bound: {worst_drift:.2f}")


if __name__ == "__main__":
    main()
