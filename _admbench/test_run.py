"""Tests of run.py's statistics, failure accounting and metric names.

    python3 -m unittest discover -s _admbench -p 'test_*.py'
"""

import json
import os
import unittest

import run

HERE = os.path.dirname(os.path.abspath(__file__))


def load_result(latency, failed=0, undecided=0, decisions=None, measured_s=2.0, rss_mb=40.0, steal=0.0):
    attempted = len(latency) + failed
    return {
        "attempted": attempted,
        "failed": failed,
        "latency_ms": latency,
        "measured_s": measured_s,
        "decisions": len(latency) if decisions is None else decisions,
        "undecided": undecided,
        "rss_mb": rss_mb,
        "steal": steal,
    }


def setups(*times, steal=None):
    return [{"setup_s": t, "setup_steal": 0.0 if steal is None else steal[i]} for i, t in enumerate(times)]


class Percentiles(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        xs = [float(x) for x in range(1, 101)]
        self.assertEqual(run.percentile(xs, 0.5), 50.5)
        self.assertAlmostEqual(run.percentile(xs, 0.99), 99.01)
        self.assertEqual(run.percentile([3.0, 1.0, 2.0], 0.0), 1.0)
        self.assertEqual(run.percentile([3.0, 1.0, 2.0], 1.0), 3.0)

    def test_empty_is_zero(self):
        self.assertEqual(run.percentile([], 0.99), 0.0)

    def test_sample_count_rule(self):
        # At least ten samples must lie beyond a reported percentile.
        self.assertTrue(run.supported(1000, 0.99))
        self.assertFalse(run.supported(999, 0.99))
        self.assertTrue(run.supported(20, 0.5))
        self.assertFalse(run.supported(19, 0.5))

    def test_whole_rep_tail_sees_one_burst(self):
        # One burst in five thousand requests is the rep's slowest two per
        # cent, so the rep's p99 reads it.
        xs = [1.0] * 4900 + [50.0] * 100
        reps = [load_result(xs)] * 3
        self.assertEqual(run.e2e_metrics(reps, 10.0, setups(1.0))["latency_p99_ms"][0], 50.0)

    def test_median_over_reps(self):
        # One rep on a disturbed host moves neither the median throughput,
        # nor the median p99, nor the median RSS; the pooled figures see it.
        calm = load_result([1.0] * 1000, measured_s=2.0, rss_mb=40.0)
        slow = load_result([9.0] * 500, measured_s=2.0, rss_mb=90.0)
        m = run.e2e_metrics([calm, slow, calm], 10.0, setups(1.0), kept=3)
        self.assertEqual(m["throughput_rps"], (500.0, "1/s", 2500))
        self.assertEqual(m["latency_p99_ms"], (1.0, "ms", 500))
        self.assertEqual(m["server_rss_mb"][0], 40.0)
        self.assertEqual(m["throughput_rps.pooled"][0], 2500 / 6.0)
        self.assertEqual(m["latency_p99_ms.pooled"][0], 9.0)

    def test_reps_with_least_steal_are_kept(self):
        # Two reps during which the hypervisor ran other machines are left
        # out even though they are the majority of the slow ones.
        calm = load_result([1.0] * 1000, steal=0.01)
        stolen = load_result([9.0] * 500, steal=0.3)
        m = run.e2e_metrics([stolen, calm, stolen, calm, calm], 10.0, setups(1.0), kept=3)
        self.assertEqual(m["throughput_rps"][0], 500.0)
        self.assertEqual(m["latency_p50_ms"][0], 1.0)
        self.assertEqual(m["slo_met_frac"][0], 1.0)  # shares count every rep

    def test_setup_is_median_of_the_calmer_half(self):
        m = run.e2e_metrics([load_result([1.0])], 10.0,
                            setups(0.1, 0.9, 0.2, 0.8, 0.3, steal=[0.0, 0.5, 0.0, 0.4, 0.0]))
        self.assertEqual(m["setup_s"], (0.2, "s", 3))

    def test_quantile_of_metric_names(self):
        self.assertEqual(run.quantile_of("latency_p99_ms"), 0.99)
        self.assertEqual(run.quantile_of("protocol.render_us.p50"), 0.5)
        self.assertIsNone(run.quantile_of("throughput_rps"))

    def test_self_time_subtracts_covered_interval(self):
        spans = [
            {"id": 1, "parent": 0, "start": 0.0, "end": 10.0},
            {"id": 2, "parent": 1, "start": 1.0, "end": 4.0},
            {"id": 3, "parent": 1, "start": 3.0, "end": 6.0},  # overlaps 2
            {"id": 4, "parent": 1, "start": 9.0, "end": 12.0},  # runs past 1
        ]
        self.assertEqual(run.self_times(spans)[1], 10.0 - 5.0 - 1.0)
        self.assertEqual(run.self_times(spans)[2], 3.0)


class FailureAccounting(unittest.TestCase):
    def test_failures_count_against_attempts_and_miss_the_limit(self):
        m = run.e2e_metrics([load_result([1.0, 2.0, 30.0], failed=1)], 10.0, setups(0.5, 0.7, 0.6))
        self.assertEqual(m["failed_frac"][0], 0.25)
        self.assertEqual(m["slo_met_frac"][0], 0.5)  # 2 of 4 attempted
        self.assertEqual(m["throughput_rps"][0], 1.5)  # 3 replies in the 2 s measured phase
        self.assertEqual(m["setup_s"][0], 0.6)

    def test_shares_count_every_rep(self):
        reps = [load_result([1.0] * 3, failed=1), load_result([1.0] * 4)]
        m = run.e2e_metrics(reps, 10.0, setups(1.0))
        self.assertEqual(m["failed_frac"], (1 / 8, "frac", 8))
        self.assertEqual(m["slo_met_frac"][0], 7 / 8)

    def test_undecided_share_of_decisions(self):
        m = run.e2e_metrics([load_result([1.0] * 4, undecided=1, decisions=2)], 10.0, setups(1.0))
        self.assertEqual(m["undecided_frac"][0], 0.5)


class DeclaredMetrics(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def declared(self, key):
        return {m["name"]: m["unit"] for m in self.spec[key]}

    def test_printed_metrics_are_declared(self):
        self.assertEqual(dict(run.E2E), self.declared("end_to_end"))
        self.assertEqual(dict(run.PER_LAYER), self.declared("per_layer"))

    def test_report_only_metrics_are_not_declared(self):
        names = set(self.declared("end_to_end")) | set(self.declared("per_layer"))
        for name, _ in run.E2E_REPORT_ONLY + run.PER_LAYER_REPORT_ONLY:
            self.assertNotIn(name, names)

    def test_every_metric_is_computed(self):
        m = run.e2e_metrics([load_result([1.0, 2.0])], 10.0, setups(1.0))
        self.assertEqual(set(m), {n for n, _ in run.E2E + run.E2E_REPORT_ONLY})
        spans = [
            {"id": i + 1, "parent": 0, "name": n, "start": 0.0, "end": 1e-3, "tag": t}
            for i, (n, t) in enumerate([
                ("protocol.parse", ""), ("protocol.render", ""), ("batcher.queue", ""),
                ("batcher.step", "1"), ("cache.canonicalize", ""), ("admission.prepare", ""),
                ("admission.inc", ""), ("admission.solve", "algo_h"), ("admission.verify", ""),
                ("admission.commit", ""), ("cache.lookup", "hit")])
        ]
        layers = {"reply_bytes": 100, "replies": 1, "steps": 1, "keyer_reused": 0, "keyer_rendered": 1, "inc_hits": 0, "adds": 0,
                  "untraced_s": 1.0, "traced_s": 1.1, "requests": 1}
        hop = dict(load_result([1.0]), dispatcher={"routed": 1, "unavailable": 0,
                                                   "shard_pending_max": 1, "balance_max_share": 1.0})
        main = dict(load_result([1.0]), ping_rtt_ms=[0.1], read_errors=0)
        m = run.layer_metrics(main, hop, load_result([0.5]), layers, spans)
        self.assertEqual(set(m), {n for n, _ in run.PER_LAYER + run.PER_LAYER_REPORT_ONLY})
        self.assertAlmostEqual(m["dispatcher.hop_ms.p50"][0], 0.5)
        self.assertEqual(m["core.solves.algo_h"][0], 1)
        self.assertEqual(m["core.solves.cache"][0], 1)

    def test_declared_workloads_exist(self):
        self.assertLessEqual({w["name"] for w in self.spec["workloads"]}, set(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
