"""Tests of the benchmark's own arithmetic: medians, quartile spreads,
span self time and the grouping of spans into layer operations.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import benchlib


def span(id, name, ts, dur, parent=0):
    return {"id": id, "name": name, "ts": ts, "dur": dur, "parent": parent}


class Stats(unittest.TestCase):
    def test_median(self):
        self.assertEqual(benchlib.median([3, 1, 2]), 2)
        self.assertEqual(benchlib.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(benchlib.median([]), 0.0)
        self.assertEqual(benchlib.median(x for x in (5.0,)), 5.0)

    def test_spread_is_iqr_over_median(self):
        # quantiles(n=4) of 1..10 (exclusive method): 2.75, 5.5, 8.25
        self.assertAlmostEqual(benchlib.spread(range(1, 11)),
                               (8.25 - 2.75) / 5.5)
        self.assertEqual(benchlib.spread([7, 7, 7, 7]), 0.0)
        self.assertEqual(benchlib.spread([1.0]), 0.0)


class SelfTime(unittest.TestCase):
    def test_leaf_and_nested(self):
        spans = [span(1, "a", 0, 100), span(2, "b", 10, 30, 1),
                 span(3, "c", 50, 20, 1), span(4, "d", 15, 5, 2)]
        self.assertEqual(benchlib.self_times(spans),
                         {1: 50, 2: 25, 3: 20, 4: 5})

    def test_overlapping_children_count_once(self):
        # Two children on pool threads overlap in [20, 40).
        spans = [span(1, "build", 0, 100), span(2, "op", 10, 30, 1),
                 span(3, "op", 20, 40, 1)]
        self.assertEqual(benchlib.self_times(spans)[1], 100 - 50)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(1, "a", 0, 10), span(2, "b", 5, 20, 1)]
        self.assertEqual(benchlib.self_times(spans)[1], 5)


class Operations(unittest.TestCase):
    def test_same_operation_children_merge(self):
        # pnr.place with one restart doing the annealing: one instance
        # whose self time is the place glue plus the restart.
        spans = [span(1, "pld.build", 0, 1000),
                 span(2, "pnr.place", 100, 400, 1),
                 span(3, "pnr.place.restart", 110, 380, 2),
                 span(4, "pnr.route", 600, 200, 1),
                 span(5, "pnr.route.iter", 610, 50, 4)]
        ops = benchlib.operations(spans)
        self.assertEqual(ops["pnr.place"]["count"], 1)
        self.assertAlmostEqual(ops["pnr.place"]["self_s"], 400e-6)
        self.assertAlmostEqual(ops["pnr.place"]["total_s"], 400e-6)
        self.assertAlmostEqual(ops["pnr.route"]["self_s"], 200e-6)
        self.assertAlmostEqual(ops["pld.build"]["self_s"], 400e-6)
        self.assertAlmostEqual(ops["pld.build"]["total_s"], 1000e-6)

    def test_median_over_instances_and_window(self):
        spans = [span(1, "hls.compile", 0, 10),
                 span(2, "hls.compile", 20, 30),
                 span(3, "hls.compile", 60, 50),
                 span(4, "hls.compile", 200, 1000)]
        ops = benchlib.operations(spans, window=(0, 150))
        self.assertEqual(ops["hls.compile"]["count"], 3)
        self.assertAlmostEqual(ops["hls.compile"]["self_s"], 30e-6)

    def test_unlisted_spans_are_ignored(self):
        ops = benchlib.operations([span(1, "bench.other", 0, 5)])
        self.assertEqual(ops, {})


class InferParents(unittest.TestCase):
    def test_nesting_per_thread(self):
        events = [
            {"ph": "X", "name": "a", "ts": 0, "dur": 100, "tid": 1},
            {"ph": "X", "name": "b", "ts": 10, "dur": 20, "tid": 1},
            {"ph": "X", "name": "c", "ts": 40, "dur": 10, "tid": 1},
            {"ph": "X", "name": "d", "ts": 15, "dur": 5, "tid": 2},
            {"ph": "i", "name": "instant", "ts": 12, "tid": 1},
        ]
        spans = {s["name"]: s for s in benchlib.infer_parents(events)}
        self.assertEqual(spans["b"]["parent"], spans["a"]["id"])
        self.assertEqual(spans["c"]["parent"], spans["a"]["id"])
        self.assertEqual(spans["a"]["parent"], 0)
        self.assertEqual(spans["d"]["parent"], 0)  # other thread
        self.assertNotIn("instant", spans)
        self.assertEqual(
            benchlib.self_times(list(spans.values()))[spans["a"]["id"]], 70)


class Metrics(unittest.TestCase):
    RAW = {
        "setup_s": [0.3, 0.1, 0.2], "op_ms": [4.0, 2.0, 3.0, 100.0],
        "ops_done": 50, "sim_cycles_round": 1000, "wirelength": 60000.0,
        "peak_rss_mb": 12.5, "rounds": 5,
        "det": {"sys.cycles": 2000, "noc.delivered": 500},
        "samples": {"svc.cold_ms": [1.0, 9.0, 5.0],
                    "round_s": [2.0, 2.5, 1.0, 2.0, 9.0],
                    "sim.cycles": [1e6, 2e6, 3e6],
                    "sim.host_s": [1.0, 0.5, 1.5],
                    "host.cal_s": [0.05, 0.04, 0.06]},
        "layer": {"svc.store_hits": 8},
        "counters": {},
    }

    def test_end_to_end(self):
        # The calibration kernel took 0.05 s, twice the reference
        # 0.025 s: the host ran at half speed, so host times halve and
        # the simulation rate (6 Mcycles in 3 s) doubles.
        m = benchlib.end_to_end(self.RAW)
        self.assertEqual(list(m), list(benchlib.END_TO_END))
        self.assertEqual(m["setup_s"], {"value": 0.1, "unit": "s"})
        self.assertEqual(m["op_ms"]["value"], 1.75)
        self.assertEqual(m["sim_mcycles_per_s"]["value"], 4.0)
        self.assertEqual(m["sim_cycles"]["value"], 1000)
        self.assertEqual(m["wirelength"],
                         {"value": 60000.0, "unit": "tile-segments"})
        self.assertEqual(m["peak_rss_mb"]["value"], 12.5)

    def test_simulation_timed_apart_uses_its_own_calibration(self):
        raw = dict(self.RAW, samples=dict(self.RAW["samples"],
                                          **{"sim.cal_s": [0.025]}))
        m = benchlib.end_to_end(raw)
        self.assertEqual(m["sim_mcycles_per_s"]["value"], 2.0)
        self.assertEqual(m["op_ms"]["value"], 1.75)

    def test_per_layer_sources(self):
        counters = {"pnr.place.moves.attempted": 400,
                    "ladder.attempts.initial": 6,
                    "ladder.attempts.fresh-seed": 2,
                    "rvgen.instructions.count": 4,
                    "rvgen.instructions.sum": 1000}
        ops = {"pnr.place": {"count": 3, "self_s": 0.5, "total_s": 0.6}}
        m = benchlib.per_layer(self.RAW, ops, counters, untraced_op_ms=1.5,
                               backend_ms=7.0)
        self.assertEqual(set(m), set(benchlib.PER_LAYER))
        self.assertEqual(m["pnr.place_s"]["value"], 0.5)
        self.assertEqual(m["pnr.place.moves_attempted"]["value"], 80)
        self.assertEqual(m["ladder.attempts"]["value"], 1.6)
        self.assertEqual(m["rvgen.instructions"]["value"], 250)
        self.assertEqual(m["sys.cycles"]["value"], 2000)
        self.assertEqual(m["noc.flits_per_kcycle"]["value"], 250)
        self.assertEqual(m["svc.cold_ms"]["value"], 5.0)
        self.assertEqual(m["svc.store.hits"]["value"], 1.6)
        self.assertEqual(m["svc.backend_ms"]["value"], 7.0)
        # 10 operations per round over a median round of 2 s.
        self.assertEqual(m["loop.ops_per_s"]["value"], 5.0)
        self.assertEqual(m["loop.op_ms_raw"]["value"], 3.5)
        self.assertEqual(m["host.calibration_ms"]["value"], 50)
        # Traced op_ms 3.5 scaled to 1.75, over the untraced 1.5.
        self.assertAlmostEqual(m["trace.overhead_pct"]["value"],
                               100 * (1.75 / 1.5 - 1))
        self.assertEqual(m["hls.compile_s"]["value"], 0.0)


if __name__ == "__main__":
    unittest.main()
