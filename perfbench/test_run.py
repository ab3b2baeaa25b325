"""Tests of the benchmark harness: the tail-percentile rule, the pass count
and the estimates over passes and processes, metric naming against BENCHMARK.json, and how requests
and runs are judged.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import random
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fake_raw(trace=False, area=2656, passes=2, slow=1.0, flow=1.0):
    """Raw program output for passes of three requests on Quad, on a host
    [slow] times slower than the reference, with flow spans covering
    [flow] of the engine's time."""
    requests = [
        {"pass": p, "system": "Quad", "kind": kind,
         "calib_ns": run.REF_CALIB_NS * slow, "ns": 1e6 * (i + 1) * slow,
         "words": 2e6, "replay_ns": 1e6 * (i + 1) * slow,
         "flow_ns": 1e6 * (i + 1) * slow * flow, "error": None,
         "area": area, "delay": (0.1, 0.2, 0.3)[i], "mults": 2, "adds": 6,
         "labels": ["sqfree", "cce"], "memo_hits": 2, "memo_misses": 2}
        for p in range(passes)
        for i, kind in enumerate(("compare", "min_delay", "min_ops"))
    ]
    raw = {"workload": "small-search", "seed": 1, "clear_each": True,
           "passes": passes, "setup_s": [0.3, 0.2, 0.4, 0.3, 0.3],
           "peak_heap_mb": 40.5, "requests": requests, "trace": None}
    if trace:
        raw["trace"] = {
            "requests": len(requests), "reps": 42, "combinations": 360,
            "certify_calls": 24, "cells_eliminated": 0,
            "cache": {"representation": [12, 12], "kernel": [30, 10],
                      "flat-cost": [5, 5]},
            "spans": {name: {"calls": 6, "ns": 1e5, "flow_ns": 1e5,
                             "words": 3e4} for name in run.SPANS},
        }
    return raw


def fake_run(processes=3, **kw):
    """The raw output of a run's processes."""
    return [fake_raw(**kw) for _ in range(processes)]


class TailRule(unittest.TestCase):
    def test_below_twenty_samples_the_maximum_is_reported(self):
        self.assertEqual(run.tail(range(1, 20)), (19, 100.0, 0))

    def test_twenty_samples_give_the_median_with_ten_beyond(self):
        self.assertEqual(run.tail(range(1, 21)), (10, 50.0, 10))

    def test_ninety_nine_samples_stay_at_p50(self):
        self.assertEqual(run.tail(range(1, 100)), (50, 50.0, 49))

    def test_one_hundred_samples_give_p90(self):
        self.assertEqual(run.tail(range(1, 101)), (90, 90.0, 10))

    def test_one_thousand_samples_give_p99(self):
        self.assertEqual(run.tail(range(1, 1001)), (990, 99.0, 10))

    def test_ten_thousand_samples_give_p99_9(self):
        self.assertEqual(run.tail(range(1, 10001)), (9990, 99.9, 10))

    def test_sample_order_does_not_matter(self):
        xs = list(range(1, 151))
        random.Random(7).shuffle(xs)
        self.assertEqual(run.tail(xs), run.tail(sorted(xs)))


class Estimates(unittest.TestCase):
    def test_the_pass_count_depends_on_workload_and_seconds_only(self):
        self.assertEqual(run.passes("small-search", 20, 0), 2)
        self.assertEqual(run.passes("small-search", 20, 1), 1)
        self.assertEqual(run.passes("warm-iterate", 1, 0), 1)

    def test_the_tail_percentile_does_not_change_with_run_speed(self):
        def timed(passes, slow):
            return {"requests": [
                {"pass": p, "system": f"Random {i}", "kind": "compare",
                 "calib_ns": run.REF_CALIB_NS * slow, "ns": 1e6 * i * slow}
                for p in range(passes) for i in range(1, 21)]}
        # 40 and 100 samples: p50 and p90 if every sample counted
        fast = run.tail(run.latencies_ms([timed(2, 1.0)]))
        slow = run.tail(run.latencies_ms([timed(5, 1.7)] * 3))
        self.assertEqual(fast[1:], (50.0, 10))
        self.assertEqual(slow[1:], fast[1:])

    def test_times_are_scaled_to_reference_speed(self):
        for got, want in zip(run.latencies_ms(fake_run(slow=2.0)),
                             run.latencies_ms(fake_run())):
            self.assertAlmostEqual(got, want)

    def test_each_request_counts_its_best_pass(self):
        raws = fake_run()
        raws[0]["requests"][0]["ns"] *= 3
        self.assertEqual(run.latencies_ms(raws), run.latencies_ms(fake_run()))

    def test_a_slow_process_does_not_move_the_estimates(self):
        raws = fake_run()
        for req in raws[1]["requests"]:
            req["ns"] *= 1.5
        raws[1]["setup_s"] = [s * 1.5 for s in raws[1]["setup_s"]]
        self.assertEqual(run.end_to_end(raws), run.end_to_end(fake_run()))


class MetricNaming(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.expected = run.load_expected()

    def units(self, trace):
        result, _ = run.summarize(fake_run(trace=trace), trace, self.expected)
        return {name: m["unit"] for name, m in result["metrics"].items()}

    def test_end_to_end_metrics_match_the_spec(self):
        self.assertEqual(self.units(0), {e["name"]: e["unit"]
                                         for e in self.spec["end_to_end"]})

    def test_per_layer_metrics_match_the_spec(self):
        self.assertEqual(self.units(1), {e["name"]: e["unit"]
                                         for e in self.spec["per_layer"]})

    def test_names_and_units_follow_the_rules(self):
        entries = self.spec["end_to_end"] + self.spec["per_layer"]
        for e in entries:
            self.assertRegex(e["name"], NAME)
            self.assertRegex(e["unit"], UNIT)
        names = [e["name"] for e in entries]
        self.assertEqual(len(names), len(set(names)))

    def test_the_result_line_has_exactly_the_contract_keys(self):
        result, _ = run.summarize(fake_run(), 0, self.expected)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertEqual(json.loads(json.dumps(result)), result)


class Judging(unittest.TestCase):
    def test_matching_references_pass(self):
        result, _ = run.summarize(fake_run(), 0, run.load_expected())
        self.assertTrue(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (18, 0))

    def test_a_reference_mismatch_fails_the_request(self):
        result, _ = run.summarize(fake_run(area=2000), 0,
                                  run.load_expected())
        self.assertFalse(result["correct"])
        # references hold for compare_methods, one request in each pass
        self.assertEqual(result["failed"], 6)

    def test_a_replay_that_leaves_out_engine_work_is_incorrect(self):
        expected = run.load_expected()
        result, _ = run.summarize(fake_run(trace=True), 1, expected)
        self.assertTrue(result["correct"])
        result, _ = run.summarize(fake_run(trace=True, flow=0.5), 1, expected)
        self.assertFalse(result["correct"])

    def test_the_request_order_does_not_change_the_sums(self):
        raws = fake_run()
        raws[1]["requests"].reverse()
        result, _ = run.summarize(raws, 0, run.load_expected())
        self.assertTrue(result["correct"])
        self.assertEqual(run.end_to_end(raws), run.end_to_end(fake_run()))

    def test_passes_that_disagree_make_the_run_incorrect(self):
        raws = fake_run()
        raws[-1]["requests"][-1]["delay"] = 0.4
        result, _ = run.summarize(raws, 0, run.load_expected())
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
