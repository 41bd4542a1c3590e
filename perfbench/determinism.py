#!/usr/bin/env python3
"""Check that the benchmark's simulated figures and layer counts
repeat exactly.

    python3 perfbench/determinism.py [--workloads edit_hw,tenancy] [--rounds 2]

Runs each workload three times for a fixed number of rounds under
PLD_TRACE / PLD_METRICS: twice with a PLD_THREADS budget of nproc and
once with a budget of 1. The per-round simulated figures (cycles,
wirelength, swap and tenancy cycles, NoC counts), the program's layer
counters over the timed loop (SA moves, router iterations, cache hits
and misses, ladder rungs, rvgen and swap counts) and the service's
request mix must be identical in all three. Every figure is computed
afresh by these runs; nothing is compared against a stored copy.
Prints the figures and each mismatch; exits 1 on any mismatch.
"""

import argparse
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def figures(args, raw, trace_dir):
    """The figures of one run that must repeat exactly."""
    out = {"sim_cycles": raw["sim_cycles_round"],
           "wirelength": raw["wirelength"]}
    out.update(("det." + k, v) for k, v in raw["det"].items())
    counters = (run.daemon_counters(trace_dir) if args.workload == "service"
                else raw["counters"])
    for k, v in counters.items():
        # Wall-clock distributions and scheduling-dependent counters
        # ("sched." by the program's own convention) are not figures.
        if "seconds" in k or k.startswith("sched.") or ".latency" in k:
            continue
        out["counter." + k] = v
    # Whether a client of the shared edit joins the in-flight compile
    # or arrives after it was stored depends on timing; their sum
    # does not.
    joined = [k for k in ("counter.svc.request.coalesced",
                          "counter.svc.store.hits") if k in out]
    if joined:
        out["counter.svc.coalesced+store.hits"] = sum(out.pop(k)
                                                      for k in joined)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    ap.add_argument("--rounds", type=int, default=2)
    ap.add_argument("--seed", type=int, default=1)
    opts = ap.parse_args()
    run.build()

    bad = 0
    for workload in opts.workloads.split(","):
        args = argparse.Namespace(workload=workload, seed=opts.seed,
                                  rounds=opts.rounds, seconds=0)
        results = []
        for label, threads in (("nproc", run.nproc()),
                               ("nproc again", run.nproc()),
                               ("PLD_THREADS=1", 1)):
            run_dir = os.path.join(run.ROOT, ".bench_build",
                                   "det-%d" % os.getpid())
            shutil.rmtree(run_dir, ignore_errors=True)
            trace_dir = os.path.join(run_dir, "trace")
            os.makedirs(trace_dir)
            try:
                raw = run.run_pldbench(args, run_dir, trace_dir, threads)
                results.append((label, figures(args, raw, trace_dir)))
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
        ref_label, ref = results[0]
        print("%s: %d figures" % (workload, len(ref)))
        for k in sorted(ref):
            print("  %-44s %.17g" % (k, ref[k]))
        for label, got in results[1:]:
            for k in sorted(set(ref) | set(got)):
                if ref.get(k) != got.get(k):
                    bad += 1
                    print("  MISMATCH %s: %s %s, %s %s" % (
                        k, ref_label, ref.get(k), label, got.get(k)))
    print("determinism: %s" % ("PASS" if not bad else "%d mismatches" % bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
