#!/usr/bin/env python3
"""Verdict rules of compare.py on synthetic runs.

  python3 bench/udrbench/compare_test.py
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "events_per_s", "unit": "events/s", "better": "higher",
         "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
    "per_layer": [{"name": "location.resolve_ns", "unit": "ns",
                   "better": "lower"}],
}

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def scaled(values, factor):
    return [v * factor for v in values]


class VerdictTest(unittest.TestCase):
    def test_unchanged_within_bound(self):
        change = [v + 0.05 for v in reversed(PARENT)]
        self.assertEqual(compare.verdict(PARENT, change, "higher", 0.1),
                         "unchanged")

    def test_improved_needs_nine_of_ten_pairs_and_iqr(self):
        self.assertEqual(
            compare.verdict(PARENT, scaled(PARENT, 1.05), "higher", 0.1),
            "improved")
        # Eight wins of ten: not a gain, though the median moved.
        change = scaled(PARENT, 1.05)
        change[0], change[1] = 90.0, 91.0
        self.assertNotEqual(compare.verdict(PARENT, change, "higher", 0.1),
                            "improved")

    def test_improved_for_lower_is_better(self):
        self.assertEqual(
            compare.verdict(PARENT, scaled(PARENT, 0.8), "lower", 0.25),
            "improved")

    def test_worse_beyond_bound(self):
        self.assertEqual(
            compare.verdict(PARENT, scaled(PARENT, 0.85), "higher", 0.1),
            "worse")
        self.assertEqual(
            compare.verdict(PARENT, scaled(PARENT, 1.3), "lower", 0.25),
            "worse")

    def test_small_slowdown_is_unchanged(self):
        self.assertEqual(
            compare.verdict(PARENT, scaled(PARENT, 0.95), "higher", 0.1),
            "unchanged")

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        self.assertEqual(compare.verdict(PARENT, noisy, "higher", 0.1),
                         "unresolved")

    def test_deterministic_metrics(self):
        self.assertEqual(
            compare.verdict([5.0, 6.0], [5.0, 6.0], "lower", 0.0, True),
            "unchanged")
        self.assertEqual(
            compare.verdict([5.0, 6.0], [5.0, 7.0], "lower", 0.0, True),
            "worse")
        self.assertEqual(
            compare.verdict([5.0, 6.0], [4.0, 5.0], "lower", 0.0, True),
            "improved")


class FileTest(unittest.TestCase):
    def write(self, directory, name, rate, setup, p50, resolve):
        runs = []
        for i in range(len(rate)):
            runs.append({"workload": "fe_inline", "trace": 0, "metrics": {
                "events_per_s": {"value": rate[i], "unit": "events/s",
                                 "basis": "host_wall"},
                "setup_s": {"value": setup[i], "unit": "s",
                            "basis": "host_wall"},
                "fe_p50_us": {"value": p50, "unit": "us", "basis": "modelled"},
            }})
        runs.append({"workload": "fe_inline", "trace": 1, "metrics": {
            "location.resolve_ns": {"value": resolve, "unit": "ns",
                                    "basis": "host_wall"}}})
        path = os.path.join(directory, name)
        with open(path, "w") as f:
            json.dump({"bench": "udrbench", "meta": {}, "runs": runs,
                       "pass": True}, f)
        return path

    def test_rows_from_result_files(self):
        with tempfile.TemporaryDirectory() as d:
            parent = self.write(d, "p.json", PARENT, [0.30] * 10, 384, 650)
            change = self.write(d, "c.json", scaled(PARENT, 0.85),
                                [0.31] * 10, 384, 640)
            rows = compare.compare(compare.load([parent]),
                                   compare.load([change]), SPEC)
        verdicts = {name: v for _, name, _, _, v in rows}
        self.assertEqual(verdicts, {"events_per_s": "worse",
                                    "setup_s": "unchanged",
                                    "fe_p50_us": "unchanged",
                                    "location.resolve_ns": "-"})


if __name__ == "__main__":
    unittest.main()
