"""Tests of the benchmark's own rules.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import unittest
from pathlib import Path

import metrics

EXPECTED = json.loads(
    (Path(__file__).resolve().parent / "expected.json").read_text())


def op(start_ns, end_ns, detail, seed="7", traced=False, spans=(),
       vpcs=10, verified=True, probe=None):
    o = {"start_ns": start_ns, "end_ns": end_ns, "seed": seed,
         "vpcs": vpcs, "verified": verified,
         "detail": copy.deepcopy(detail), "traced": traced}
    if traced:
        o["spans"] = [{"name": n, "start_ns": s, "end_ns": e}
                      for n, s, e in spans]
        o["counts"] = {}
    if probe is not None:
        o["probe"] = copy.deepcopy(probe)
    return o


MATMUL_SPANS = [("stream_pim.construct", 0, 1), ("tiled_matmul.run", 1, 3),
                ("fault_campaign.run", 5, 9)]


def probed(seed, probe):
    """A traced functional_matmul op carrying a campaign probe."""
    return op(0, 3, {}, seed=seed, traced=True, spans=MATMUL_SPANS,
              probe=probe)


def timed_detail(workload):
    d = dict(EXPECTED[workload])
    for kind in ("batches", "pim_vpcs", "move_vpcs"):
        d["executed_" + kind] = d[kind]
    return d


CAMPAIGN = {"program_vpcs": 480, "verified_vpcs": 480, "clean": 50,
            "corrected": 390, "retried": 40, "failed": 0,
            "mismatched_recovered": 0, "recovered": 0,
            "unrecoverable": 0, "recovery_deposits": 0,
            "migrations": 2, "quarantined": 0,
            "migration_deposits": 1000, "deposits": 10000}


class TailPercentileTest(unittest.TestCase):
    def test_no_tail_below_ten_samples_beyond_p90(self):
        self.assertIsNone(metrics.tail_percentile([]))
        self.assertIsNone(metrics.tail_percentile(list(range(99))))

    def test_p90_from_100_samples(self):
        samples = list(range(1, 101))
        self.assertEqual(metrics.tail_percentile(samples), (90.0, 90))

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(metrics.tail_percentile(range(1, 1000))[0], 90.0)
        self.assertEqual(metrics.tail_percentile(range(1, 1001)),
                         (99.0, 990))
        self.assertEqual(metrics.tail_percentile(range(1, 10001)),
                         (99.9, 9990))

    def test_order_of_samples_does_not_matter(self):
        samples = list(range(1, 101))
        self.assertEqual(metrics.tail_percentile(samples[::-1]),
                         (90.0, 90))

    def test_end_to_end_reports_tail_only_with_enough_ops(self):
        def doc(n):
            ops = [op(i * 10, i * 10 + 5, {}) for i in range(n + 1)]
            return {"ops": ops, "window_s": 1.0, "peak_rss_mib": 3.0}

        _, tail = metrics.end_to_end([0.1], doc(99))
        self.assertIsNone(tail)
        _, tail = metrics.end_to_end([0.1], doc(100))
        self.assertEqual(tail[0], "op_p90_ms")


class WindowThroughputTest(unittest.TestCase):
    def test_vpcs_over_window(self):
        self.assertEqual(metrics.window_throughput([100, 200, 300], 2.0),
                         300.0)

    def test_empty_window_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.window_throughput([1], 0.0)

    def test_end_to_end_leaves_out_the_setup_op(self):
        ops = [op(0, 4_000_000, {}, vpcs=1000),
               op(4_000_000, 5_000_000, {}, vpcs=10),
               op(5_000_000, 7_000_000, {}, vpcs=30)]
        doc = {"ops": ops, "window_s": 0.5, "peak_rss_mib": 3.0}
        m, _ = metrics.end_to_end([0.3, 0.1, 0.2], doc)
        self.assertEqual(m["vpcs_per_s"], 80.0)
        self.assertEqual(m["op_p50_ms"], 1.5)
        self.assertEqual(m["setup_s"], 0.2)


class CheckOpsTest(unittest.TestCase):
    def test_recorded_values_pass(self):
        for w in ("timed_bert", "timed_mlp"):
            ops = [op(0, 1, timed_detail(w)) for _ in range(3)]
            self.assertEqual(metrics.check_ops(w, ops, EXPECTED), {})

    def test_wrong_recorded_value_fails_every_op(self):
        wrong = copy.deepcopy(EXPECTED)
        wrong["timed_bert"]["energy_pj"] *= 1.0 + 1e-15
        ops = [op(0, 1, timed_detail("timed_bert")) for _ in range(3)]
        failures = metrics.check_ops("timed_bert", ops, wrong)
        self.assertEqual(sorted(failures), [0, 1, 2])

    def test_executed_counts_must_match_the_plan(self):
        d = timed_detail("timed_mlp")
        d["executed_batches"] -= 1
        failures = metrics.check_ops("timed_mlp", [op(0, 1, d)], EXPECTED)
        self.assertEqual(list(failures), [0])

    def test_matmul_reference_mismatch_fails(self):
        ops = [op(0, 1, {}), op(1, 2, {}, verified=False), op(2, 3, {})]
        self.assertEqual(list(metrics.check_ops("functional_matmul", ops,
                                                EXPECTED)), [1])

    def test_campaign_mismatch_fails(self):
        bad = dict(CAMPAIGN, mismatched_recovered=1)
        ops = [probed("1", CAMPAIGN), probed("2", bad),
               probed("1", CAMPAIGN)]
        self.assertEqual(list(metrics.check_ops("functional_matmul", ops,
                                                EXPECTED)), [1])

    def test_campaign_repeat_must_reproduce_op0(self):
        ops = [probed("1", CAMPAIGN), probed("2", CAMPAIGN),
               probed("1", dict(CAMPAIGN, clean=51, corrected=389))]
        self.assertEqual(list(metrics.check_ops("functional_matmul", ops,
                                                EXPECTED)), [2])

    def test_wrong_reference_counts_fail_the_repeat(self):
        ops = [probed("1", dict(CAMPAIGN, retried=41, clean=49)),
               probed("2", CAMPAIGN), probed("1", CAMPAIGN)]
        self.assertEqual(list(metrics.check_ops("functional_matmul", ops,
                                                EXPECTED)), [2])

    def test_last_op_must_repeat_op0_seed(self):
        ops = [op(0, 1, {}, seed="1"), op(1, 2, {}, seed="2")]
        self.assertEqual(list(metrics.check_ops("functional_matmul", ops,
                                                EXPECTED)), [1])

    def test_span_coverage_below_ninety_percent_fails(self):
        spans_ok = [("stream_pim.construct", 0, 5),
                    ("tiled_matmul.run", 5, 96)]
        spans_gap = [("stream_pim.construct", 0, 5),
                     ("tiled_matmul.run", 50, 90)]
        ops = [op(0, 100, {}), op(0, 100, {}, traced=True, spans=spans_ok),
               op(0, 100, {}, traced=True, spans=spans_gap), op(0, 100, {})]
        self.assertEqual(list(metrics.check_ops("functional_matmul", ops,
                                                EXPECTED)), [2])


class PerLayerTest(unittest.TestCase):
    def test_every_layer_metric_is_reported(self):
        spans = [("workloads.build", 0, 10), ("planner.plan", 10, 30),
                 ("executor.run", 30, 100)]
        d = timed_detail("timed_bert")
        ops = [op(0, 100, d, traced=True, spans=spans),
               op(0, 100, d, traced=True, spans=spans),
               op(0, 110, d)]
        for o in ops:
            if o["traced"]:
                o["counts"] = {"planner.rss_growth_mib": 1.0,
                               "executor.rss_growth_mib": 2.0,
                               "schedule.mib": 3.0}
        m = metrics.per_layer("timed_bert", {"ops": ops})
        self.assertEqual(set(m), set(metrics.PER_LAYER_UNITS))
        self.assertEqual(m["tiler.tile_tasks"], 0)
        self.assertEqual(m["schedule.batches"], d["batches"])
        self.assertAlmostEqual(m["trace.overhead_pct"], -100.0 / 11)
        self.assertAlmostEqual(m["trace.min_coverage_pct"], 100.0)


class ProbeLayerTest(unittest.TestCase):
    def test_campaign_layers_come_from_the_probe(self):
        detail = {"vpcs": 100, "pim_vpcs": 60, "tile_tasks": 8,
                  "rounds": 4}
        probe = dict(CAMPAIGN, failed=2, recovered=1)
        ops = [op(0, 3, detail, traced=True, spans=MATMUL_SPANS,
                  probe=probe) for _ in range(3)]
        m = metrics.per_layer("functional_matmul", {"ops": ops})
        self.assertEqual(m["fault_campaign.run_ms"], 4e-6)
        self.assertEqual(m["recovery.saved_ratio"], 0.5)
        self.assertEqual(m["endurance.program_deposit_ratio"], 0.9)
        self.assertEqual(m["tiled_matmul.vpcs_per_round"], 25)
        self.assertEqual(m["planner.plan_ms"], 0)


if __name__ == "__main__":
    unittest.main()
