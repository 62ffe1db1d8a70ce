#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workloads dtl-symbolic,serve-mixed --seeds 1-10

For every workload and end-to-end metric, prints the median of the runs, the
first and third quartiles (Python's `statistics.quantiles(values, n=4)`), and
the spread: the distance between the quartiles as a share of the median,
next to the metric's bound from BENCHMARK.json. Also prints the share of
failed operations, which must be the same in every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({done.returncode}):\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--values", action="store_true", help="also print each run's value")
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        results = [run(workload, s, args.seconds) for s in seeds(args.seeds)]
        bad = [r for r in results if not r["correct"]]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: {len(results)} runs, {len(bad)} incorrect, "
              f"failed shares {shares}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= bound / 3 else (" over a third of bound" if spread <= bound
                                                   else " OVER BOUND")
            print(f"  {name:<18} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:6.3f} (bound {bound}){flag}")
            if args.values:
                print("    " + " ".join(f"{v:.4g}" for v in values))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
