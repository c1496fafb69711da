#!/usr/bin/env python3
"""Stability tooling: runs each workload repeatedly, in alternating order,
and prints each metric's median, quartiles, min/max and quartile spread.

The bounds in BENCHMARK.json are set from these figures: a metric's spread
(Q3 - Q1) / median over runs with different seeds must stay below its
bound, and well below it (a third) to leave room for a noisier host.

Run from the repository root:

    python3 perfbench/stability.py                  # 10 runs per workload
    python3 perfbench/stability.py --runs 5 --workloads churn-global
    python3 perfbench/stability.py --trace 1 --runs 1 --json out.json
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, min(values), max(values), spread


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", help="also write every run's result here")
    args = p.parse_args()

    workloads = args.workloads.split(",")
    for w in workloads:
        if w not in names:
            sys.exit(f"unknown workload {w}; known: {', '.join(names)}")
    metric_set = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metric_set}

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            r = run_once(bench["command"], w, args.seed_base + i, args.seconds, args.trace)
            results[w].append(r)
            print(f"run {i + 1}/{args.runs} {w}: {r['attempted']} ops, "
                  f"{r['failed']} failed, correct={r['correct']}, {r['wall_s']:.1f}s wall",
                  file=sys.stderr)

    ok = True
    for w in workloads:
        runs = results[w]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n== {w}: {len(runs)} runs, failed share {sorted(shares)}, "
              f"all correct: {all(r['correct'] for r in runs)}, "
              f"wall {statistics.median(r['wall_s'] for r in runs):.1f}s median")
        print(f"{'metric':34s} {'median':>13s} {'q1':>13s} {'q3':>13s} "
              f"{'min':>13s} {'max':>13s} {'spread':>7s} {'bound':>6s}")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if not values:
                continue
            med, q1, q3, lo, hi, spread = summarize(values)
            bound = bounds[name]
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- over a third of its bound"
                ok = False
            print(f"{name:34s} {med:13.4f} {q1:13.4f} {q3:13.4f} {lo:13.4f} {hi:13.4f} "
                  f"{spread:7.3f} {'' if bound is None else bound:>6}{flag}")
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
