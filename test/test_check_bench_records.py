#!/usr/bin/env python3
"""Unit tests of check_bench_records.py: the committed records check, and
doctored copies of one are rejected for what was doctored.

Run from anywhere:  python3 test/test_check_bench_records.py
"""

import copy
import json
import unittest

import check_bench_records as cbr

DIRECTIONS = cbr.better_directions(
    json.loads((cbr.ROOT / "BENCHMARK.json").read_text()))
RECORD = json.loads((cbr.ROOT / "BENCH_PR14.json").read_text())


class CheckBenchRecords(unittest.TestCase):
    def rejects(self, record, *fragments):
        errors = cbr.check_record(record, DIRECTIONS)
        self.assertTrue(errors, "the doctored record must be rejected")
        for fragment in fragments:
            self.assertTrue(any(fragment in e for e in errors),
                            f"no error mentions {fragment!r}: {errors}")

    def test_committed_records_check(self):
        for path in sorted(cbr.ROOT.glob("BENCH_PR*.json")):
            with self.subTest(path=path.name):
                self.assertEqual(
                    [], cbr.check_record(json.loads(path.read_text()), DIRECTIONS))

    def test_committed_claim_is_met(self):
        self.assertTrue(cbr.claim_met(RECORD["workloads"]["sg-banks"],
                                      "syntheses_per_s", "higher"))

    def test_edited_median(self):
        r = copy.deepcopy(RECORD)
        r["workloads"]["sg-banks"]["summary"]["syntheses_per_s"]["change"]["median"] *= 1.01
        self.rejects(r, "sg-banks syntheses_per_s: change median")

    def test_met_on_unmet_claim(self):
        r = copy.deepcopy(RECORD)
        r["claim"] = {"workload": "sg-banks", "metric": "proposed_area_ge",
                      "met": True}
        self.rejects(r, "states met=True, the pairs give met=False")

    def test_unmet_stated_on_met_claim(self):
        r = copy.deepcopy(RECORD)
        r["claim"]["met"] = False
        self.rejects(r, "states met=False, the pairs give met=True")

    def test_claim_without_met_must_hold(self):
        r = copy.deepcopy(RECORD)
        r["claim"] = {"workload": "sg-banks", "metric": "proposed_delay"}
        self.rejects(r, "the pairs give met=False")

    def test_claim_needs_ten_pairs(self):
        r = copy.deepcopy(RECORD)
        r["claim"]["workload"] = "small-search"
        self.rejects(r, "3 pairs, at least 10 needed")

    def test_incorrect_pair(self):
        r = copy.deepcopy(RECORD)
        r["workloads"]["warm-iterate"]["pairs"][1]["change"]["result"]["correct"] = False
        self.rejects(r, "warm-iterate: seed 2 change is not correct")

    def test_pairing_order(self):
        r = copy.deepcopy(RECORD)
        r["workloads"]["small-search"]["pairs"][1]["first"] = "parent"
        self.rejects(r, "seeds 1 and 2 both run parent first")

    def test_edited_wins(self):
        r = copy.deepcopy(RECORD)
        r["workloads"]["small-search"]["summary"]["alloc_mw_per_synth"]["change_wins"] -= 1
        self.rejects(r, "small-search alloc_mw_per_synth: change wins/losses")


if __name__ == "__main__":
    unittest.main()
