#!/usr/bin/env python3
"""Repeat the benchmark to see how steady it is.

    python3 perfbench/steady.py [--workloads edit_hw,service] [--runs 10]
                                [--seconds 10] [--first-seed 101]

Runs each workload --runs times through run.py, each time with the
next seed, and prints for every end-to-end metric its median, its
quartiles and its quartile spread (IQR over median) beside the bound
BENCHMARK.json gives it. A spread under a third of the bound is
marked "ok", under the bound "near", otherwise "WIDE". It also prints
each run's share of failed operations, which must be the same in
every run. The figures set the bounds in BENCHMARK.json; see
perfbench/README.md for the ones measured on the reference machine.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib  # noqa: E402

ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=101)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    worst = 0.0
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        shares = set()
        for i in range(args.runs):
            seed = args.first_seed + i
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: run failed (exit %d)"
                      % (workload, seed, proc.returncode))
                return 1
            out = json.loads(lines[-1])
            shares.add((out["failed"], out["attempted"]))
            for name in bounds:
                values[name].append(out["metrics"][name]["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.5g" % (k, v[-1]) for k, v in values.items())),
                flush=True)

        print("\n%-10s %-18s %12s %12s %12s %8s %6s" % (
            workload, "metric", "median", "q1", "q3", "spread", "bound"))
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            s = benchlib.spread(vals)
            verdict = ("ok" if s < bounds[name] / 3 else
                       "near" if s < bounds[name] else "WIDE")
            if name != "setup_s":
                worst = max(worst, s / bounds[name])
            print("%-10s %-18s %12.6g %12.6g %12.6g %8.4f %6.3f %s" % (
                "", name, statistics.median(vals), q1, q3, s, bounds[name],
                verdict))
        ratios = sorted({f / a for f, a in shares})
        print("%-10s failed share per run: %s\n" % (
            "", ", ".join("%.6f" % r for r in ratios)), flush=True)
    print("largest spread / bound (setup_s aside): %.3f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
