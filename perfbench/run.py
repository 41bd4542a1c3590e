#!/usr/bin/env python3
"""Run one workload of the edit->compile->run benchmark.

    python3 perfbench/run.py --workload edit_hw --seed 1 --seconds 10 --trace 0

Builds the PLD libraries, the pldd daemon and the benchmark runner
from this checkout's sources into .bench_build/ (CMake, Release), runs
the runner and prints, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
workload runs twice, untraced and then under PLD_TRACE / PLD_METRICS,
and the metrics are the per-layer ones, tracing overhead included.
Everything else (build output, progress, errors) goes to stderr. The
exit code is 0 when every check passed, 1 when a check failed and 2
when the benchmark could not build or run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("edit_hw", "debug_sw", "service", "tenancy")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configure once, then bring the two binaries up to date."""
    jobs = str(nproc())
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "pldbench", "pldd"], stdout=sys.stderr, check=True)


def run_pldbench(args, run_dir, trace_dir=None, threads=1):
    """Run pldbench once in @run_dir, with a PLD_THREADS budget of
    @threads; returns its raw JSON.

    A one-operator edit compiles one page, so a budget of 1 loses
    little, and it keeps each timed operation single-core work, which
    the runner's single-core host calibration tracks (README "Noise").
    """
    env = dict(os.environ)
    env["PLD_THREADS"] = str(threads)
    env.pop("PLD_TRACE", None)
    env.pop("PLD_METRICS", None)
    cmd = [os.path.join(BUILD, "pldbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--pldd", os.path.join(BUILD, "pldd")]
    cmd += (["--rounds", str(args.rounds)] if args.rounds else
            ["--seconds", str(args.seconds)])
    if trace_dir:
        env["PLD_TRACE"] = os.path.join(trace_dir, "bench.trace.json")
        env["PLD_METRICS"] = os.path.join(trace_dir, "bench.metrics.json")
        cmd += ["--trace-dir", trace_dir]
    proc = subprocess.run(cmd, cwd=run_dir, env=env, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("pldbench printed no result (exit %d)"
                           % proc.returncode)
    return json.loads(lines[-1])


def daemon_counters(trace_dir):
    """The daemon's counters over the timed loop: its whole-life
    PLD_METRICS minus those of a daemon that only did the set-up."""
    def flat(path):
        if not os.path.exists(path):
            return {}
        with open(path) as f:
            m = json.load(f)
        out = {k: float(v) for k, v in m.get("counters", {}).items()}
        for k, d in m.get("dists", {}).items():
            out[k + ".count"] = float(d["count"])
            out[k + ".sum"] = float(d["sum"])
        return out
    whole = flat(os.path.join(trace_dir, "pldd.metrics.json"))
    setup = flat(os.path.join(trace_dir, "pldd-setup.metrics.json"))
    return {k: v - setup.get(k, 0.0) for k, v in whole.items()}


def traced_metrics(args, raw, untraced, trace_dir):
    spans = benchlib.load_span_dump(os.path.join(trace_dir,
                                                 "bench.spans.jsonl"))
    ops = benchlib.operations(spans, window=raw["window_us"])
    counters = raw["counters"]
    backend_ms = 0.0
    if args.workload == "service":
        daemon = benchlib.load_chrome_trace(
            os.path.join(trace_dir, "pldd.trace.json"))
        ops.update(benchlib.operations(daemon))
        counters = daemon_counters(trace_dir)
        backend_ms = 1e-3 * benchlib.median(
            s["dur"] for s in daemon if s["name"] == "pld.build")
    log("%-20s %8s %14s %14s" % ("operation", "count", "median self s",
                                 "median total s"))
    for op, v in sorted(ops.items()):
        log("%-20s %8d %14.6g %14.6g" % (op, v["count"], v["self_s"],
                                         v["total_s"]))
    return benchlib.per_layer(raw, ops, counters,
                              benchlib.end_to_end(untraced)["op_ms"]["value"],
                              backend_ms)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--rounds", type=int, default=0,
                    help="run a fixed number of rounds instead of "
                         "--seconds (determinism checks)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed:", e)
        return 2

    run_dir = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        raw = run_pldbench(args, run_dir)
        runs = [raw]
        if args.trace:
            trace_dir = os.path.join(run_dir, "trace")
            os.makedirs(trace_dir)
            traced = run_pldbench(args, run_dir, trace_dir)
            runs.append(traced)
            metrics = traced_metrics(args, traced, raw, trace_dir)
        else:
            metrics = benchlib.end_to_end(raw)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log("perfbench: run failed:", e)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for r in runs:
        for err in r["errors"]:
            log("perfbench:", err)
    correct = all(r["correct"] for r in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
