"""Arithmetic of the edit->compile->run benchmark.

Everything that turns the runner's raw samples and the program's
traces into the benchmark's numbers lives here, so that it can be
tested on its own (test_benchlib.py):

- medians and quartile spreads of samples;
- self time of trace spans (a span's duration minus the part of it its
  child spans cover) and their grouping into per-layer operations;
- the end-to-end and per-layer metrics of one run.
"""

import json
import statistics
from collections import defaultdict

# Seconds the runner's host calibration kernel takes on a quiet host
# of the reference machine (README "Noise"). Host times are scaled by
# CALIBRATION_S over the kernel's median time in the same run.
CALIBRATION_S = 0.025

# Metric name -> (unit, better). The order is the order printed.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_ms": ("ms", "lower"),
    "sim_cycles": ("cycles", "lower"),
    "wirelength": ("tile-segments", "lower"),
    "sim_mcycles_per_s": ("Mcycles/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

# Span name -> the layer operation it belongs to. A span whose parent
# belongs to the same operation is part of that operation's instance
# (an annealing restart is part of its placement, a router iteration
# part of its routing); anything unlisted is ignored.
SPAN_OPERATION = {
    "pnr.place": "pnr.place",
    "pnr.place.restart": "pnr.place",
    "pnr.route": "pnr.route",
    "pnr.route.init": "pnr.route",
    "pnr.route.iter": "pnr.route",
    "pnr.route.lane": "pnr.route",
    "pnr.timing": "pnr.timing",
    "pnr.bitgen": "pnr.bitgen",
    "hls.compile": "hls.compile",
    "hls.schedule": "hls.schedule",
    "hls.emit": "hls.emit",
    "syn.synthesize": "syn.synthesize",
    "pld.build": "pld.build",
    "pld.op": "pld.build",
    "pld.attempt": "pld.build",
    "pld.swap_artifact": "pld.swap_artifact",
    "rvgen.compile": "rvgen.compile",
    "sys.run": "sys.run",
    "sys.slice": "sys.run",
    "sys.link": "sys.run",
    "sys.swap": "sys.swap",
    "tenant.schedule": "tenancy.run",
}

# Per-layer metrics: name -> (unit, source). Sources:
#   ("span", op)            median self seconds per instance of op
#   ("counter", names)      program counters summed, per round
#   ("mean", name)          program distribution's mean per sample
#   ("det", key)            runner's exact per-round figure
#   ("sample", key)         median of the runner's samples
#   ("svc", key)            daemon request counter, per round
#   ("backend",)            median total time of the daemon's builds
#   ("flits",)              NoC flits delivered per 1000 cycles
#   ("rate",)               operations per round over the median round
#   ("raw",)                op_ms before the host-speed scaling
#   ("calibration",)        median time of the host calibration kernel
#   ("overhead",)           traced op_ms over untraced op_ms, in %
PER_LAYER = {
    "pnr.place_s": ("s", ("span", "pnr.place")),
    "pnr.route_s": ("s", ("span", "pnr.route")),
    "pnr.timing_s": ("s", ("span", "pnr.timing")),
    "pnr.bitgen_s": ("s", ("span", "pnr.bitgen")),
    "pnr.place.moves_attempted": (
        "count", ("counter", ["pnr.place.moves.attempted"])),
    "pnr.place.moves_accepted": (
        "count", ("counter", ["pnr.place.moves.accepted"])),
    "pnr.place.temp_steps": ("count", ("counter", ["pnr.place.temp_steps"])),
    "pnr.route.iterations": ("count", ("counter", ["pnr.route.iterations"])),
    "pnr.route.ripups": ("count", ("counter", ["pnr.route.ripups"])),
    "pnr.crit_path_ns": ("ns", ("sample", "pnr.crit_path_ns")),
    "ladder.attempts": ("count", ("counter", ["ladder.attempts.*"])),
    "hls.compile_s": ("s", ("span", "hls.compile")),
    "hls.schedule_s": ("s", ("span", "hls.schedule")),
    "hls.emit_s": ("s", ("span", "hls.emit")),
    "syn.synthesize_s": ("s", ("span", "syn.synthesize")),
    "pld.build_s": ("s", ("span", "pld.build")),
    "pld.swap_artifact_s": ("s", ("span", "pld.swap_artifact")),
    "pld.recompiled_ops": ("count", ("sample", "pld.recompiled_ops")),
    "cache.hits": ("count", ("counter", ["cache.hits"])),
    "cache.misses": ("count", ("counter", ["cache.misses"])),
    "rvgen.compile_s": ("s", ("span", "rvgen.compile")),
    "rvgen.instructions": ("count", ("mean", "rvgen.instructions")),
    "rvgen.spills": ("count", ("mean", "rvgen.spills")),
    "sys.run_s": ("s", ("span", "sys.run")),
    "sys.cycles": ("cycles", ("det", "sys.cycles")),
    "sys.link_cycles": ("cycles", ("det", "sys.link_cycles")),
    "sys.page.stalls": ("count", ("counter", ["sys.page.stalls"])),
    "sys.dma.words": (
        "count", ("counter", ["sys.dma.words.in", "sys.dma.words.out"])),
    "noc.injected": ("count", ("det", "noc.injected")),
    "noc.delivered": ("count", ("det", "noc.delivered")),
    "noc.deflections": ("count", ("det", "noc.deflections")),
    "noc.hops": ("count", ("det", "noc.hops")),
    "noc.flits_per_kcycle": ("count", ("flits",)),
    "sys.swap_s": ("s", ("span", "sys.swap")),
    "sys.swap.cycles": ("cycles", ("mean", "sys.swap.cycles")),
    "sys.swap.packets": ("count", ("counter", ["sys.swap.packets"])),
    "sys.swap.image_bytes": ("bytes", ("sample", "sys.swap.image_bytes")),
    "tenant.slices": ("count", ("det", "tenant.slices")),
    "tenant.evictions": ("count", ("det", "tenant.evictions")),
    "tenant.instatements": ("count", ("det", "tenant.instatements")),
    "tenant.drain_cycles": ("cycles", ("det", "tenant.drain_cycles")),
    "tenant.reinstate_cycles": ("cycles", ("det", "tenant.reinstate_cycles")),
    "tenant.page_cycles_served": (
        "cycles", ("det", "tenant.page_cycles_served")),
    "tenancy.run_s": ("s", ("span", "tenancy.run")),
    "svc.cold_ms": ("ms", ("sample", "svc.cold_ms")),
    "svc.hit_ms": ("ms", ("sample", "svc.hit_ms")),
    "svc.coalesced_ms": ("ms", ("sample", "svc.coalesced_ms")),
    "svc.swap_ms": ("ms", ("sample", "svc.swap_ms")),
    "svc.backend_ms": ("ms", ("backend",)),
    "svc.store.hits": ("count", ("svc", "svc.store_hits")),
    "svc.store.misses": ("count", ("svc", "svc.store_misses")),
    "svc.store.puts": ("count", ("svc", "store.puts")),
    "svc.coalesced": ("count", ("svc", "svc.coalesced")),
    "svc.rejected": ("count", ("svc", "svc.rejected")),
    "pldc.ping_ms": ("ms", ("sample", "pldc.ping_ms")),
    "loop.ops_per_s": ("1/s", ("rate",)),
    "loop.op_ms_raw": ("ms", ("raw",)),
    "host.calibration_ms": ("ms", ("calibration",)),
    "trace.overhead_pct": ("%", ("overhead",)),
}


def median(values):
    """Median of a non-empty sequence; 0 for an empty one."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def spread(values):
    """Quartile spread of @values as a share of their median: the
    distance between the first and third quartile (as
    statistics.quantiles(n=4) gives them) over the median."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    m = statistics.median(values)
    return (q3 - q1) / abs(m) if m else float("inf")


def _covered(start, end, intervals):
    """Length of [start, end) covered by the union of @intervals."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it
    covered by its children. Children may run on other threads and
    overlap each other; overlapping time is subtracted once. @spans
    are dicts with name, ts, dur (microseconds), id and parent (0 for
    a root). Returns {id: self_us}."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["ts"], s["ts"] + s["dur"]))
    return {
        s["id"]: s["dur"] - _covered(s["ts"], s["ts"] + s["dur"],
                                     children[s["id"]])
        for s in spans
    }


def infer_parents(events, eps=1e-3):
    """Give Chrome trace complete events ("ph": "X") ids and parents
    from their nesting on each thread: the parent of a span is the
    innermost span of the same thread that contains it. Used for
    traces written without parent ids."""
    spans = []
    by_tid = defaultdict(list)
    for e in events:
        if e.get("ph") == "X":
            by_tid[e.get("tid", 0)].append(e)
    next_id = 1
    for tid in sorted(by_tid):
        stack = []
        for e in sorted(by_tid[tid], key=lambda e: (e["ts"], -e["dur"])):
            end = e["ts"] + e["dur"]
            while stack and stack[-1]["ts"] + stack[-1]["dur"] <= e["ts"] + eps:
                stack.pop()
            parent = 0
            if stack and end <= stack[-1]["ts"] + stack[-1]["dur"] + eps:
                parent = stack[-1]["id"]
            span = {"name": e["name"], "ts": e["ts"], "dur": e["dur"],
                    "id": next_id, "parent": parent}
            next_id += 1
            spans.append(span)
            stack.append(span)
    return spans


def operations(spans, operation_of=SPAN_OPERATION, window=None):
    """Group spans into layer operations. An instance of an operation
    is a span whose parent belongs to another operation (or to none);
    its self time adds the self time of every descendant reached
    through spans of the same operation. Instances that do not lie
    inside @window ((start_us, end_us)) are dropped.

    Returns {operation: {"count", "self_s", "total_s"}} with the
    median self and total seconds per instance."""
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)
    kids = defaultdict(list)
    for s in spans:
        kids[s["parent"]].append(s)

    out = defaultdict(lambda: {"self": [], "total": []})
    for s in spans:
        op = operation_of.get(s["name"])
        if op is None:
            continue
        parent = by_id.get(s["parent"])
        if parent is not None and operation_of.get(parent["name"]) == op:
            continue
        if window and not (window[0] <= s["ts"] and
                           s["ts"] + s["dur"] <= window[1]):
            continue
        self_us = 0.0
        todo = [s]
        while todo:
            cur = todo.pop()
            self_us += own[cur["id"]]
            todo.extend(k for k in kids[cur["id"]]
                        if operation_of.get(k["name"]) == op)
        out[op]["self"].append(self_us / 1e6)
        out[op]["total"].append(s["dur"] / 1e6)
    return {op: {"count": len(v["self"]), "self_s": median(v["self"]),
                 "total_s": median(v["total"])}
            for op, v in out.items()}


def load_span_dump(path):
    """Spans written one JSON object per line (with parent ids)."""
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def load_chrome_trace(path):
    """Spans of a Chrome trace-event file, parents inferred."""
    with open(path) as f:
        return infer_parents(json.load(f)["traceEvents"])


def host_speed(raw):
    """How much faster than the reference the host ran during @raw:
    CALIBRATION_S over the median time of the calibration kernel."""
    cal = median(raw["samples"].get("host.cal_s", []))
    return CALIBRATION_S / cal if cal else 1.0


def end_to_end(raw):
    """The end-to-end metrics of one pldbench run. Host times are scaled
    to the reference host speed (host_speed)."""
    samples = raw["samples"]
    speed = host_speed(raw)
    # Simulator runs timed apart from the loop carry calibrations of
    # their own (service's checks of the served builds).
    sim_speed = (CALIBRATION_S / median(samples["sim.cal_s"])
                 if samples.get("sim.cal_s") else speed)
    host_s = sum(samples.get("sim.host_s", []))
    values = {
        "setup_s": median(raw["setup_s"]) * speed,
        "op_ms": median(raw["op_ms"]) * speed,
        "sim_cycles": raw["sim_cycles_round"],
        "wirelength": raw["wirelength"],
        "sim_mcycles_per_s": (sum(samples.get("sim.cycles", [])) / host_s /
                              1e6 / sim_speed if host_s else 0.0),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    return {k: {"value": float(values[k]), "unit": END_TO_END[k][0]}
            for k in END_TO_END}


def _counter_sum(counters, names):
    total = 0.0
    for name in names:
        if name.endswith("*"):
            total += sum(v for k, v in counters.items()
                         if k.startswith(name[:-1]))
        else:
            total += counters.get(name, 0)
    return total


def per_layer(raw, ops, counters, untraced_op_ms, backend_ms=0.0):
    """The per-layer metrics of one traced pldbench run. @ops is
    operations() of its spans, @counters the program counters of its
    timed loop (or of the daemon), @untraced_op_ms the scaled op_ms of
    the untraced run beside it. Layer times are as measured, not
    scaled. A layer the workload does not exercise reads 0."""
    rounds = max(raw["rounds"], 1)
    det = raw["det"]
    samples = raw["samples"]
    out = {}
    for name, (unit, source) in PER_LAYER.items():
        kind = source[0]
        if kind == "span":
            value = ops.get(source[1], {}).get("self_s", 0.0)
        elif kind == "counter":
            value = _counter_sum(counters, source[1]) / rounds
        elif kind == "mean":
            n = counters.get(source[1] + ".count", 0)
            value = counters.get(source[1] + ".sum", 0) / n if n else 0.0
        elif kind == "det":
            value = det.get(source[1], 0.0)
        elif kind == "sample":
            value = median(samples.get(source[1], []))
        elif kind == "svc":
            value = raw["layer"].get(source[1], 0) / rounds
        elif kind == "backend":
            value = backend_ms
        elif kind == "rate":
            round_s = median(samples.get("round_s", []))
            value = raw["ops_done"] / rounds / round_s if round_s else 0.0
        elif kind == "flits":
            cycles = det.get("sys.cycles", 0)
            value = (1000.0 * det.get("noc.delivered", 0) / cycles
                     if cycles else 0.0)
        elif kind == "raw":
            value = median(raw["op_ms"])
        elif kind == "calibration":
            value = 1e3 * median(samples.get("host.cal_s", []))
        else:  # overhead
            traced = median(raw["op_ms"]) * host_speed(raw)
            value = (100.0 * (traced / untraced_op_ms - 1)
                     if untraced_op_ms else 0.0)
        out[name] = {"value": float(value), "unit": unit}
    return out
