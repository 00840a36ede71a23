#!/usr/bin/env python3
"""Unit tests for compare.py's verdict and bound arithmetic."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "jobs_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.1},
    ],
    "per_layer": [{"name": "mp.messages", "unit": "count", "better": "lower"},
                  {"name": "lb.s", "unit": "s", "better": "lower"}],
}


def seeds(*values):
    return {s + 1: v for s, v in enumerate(values)}


def rows(metric, values, unit="s", workload="w"):
    return [{"workload": workload, "metric": metric, "value": v, "unit": unit,
             "seed": s + 1} for s, v in enumerate(values)]


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        q1, med, q3 = compare.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual((q1, med, q3), (2.75, 5.5, 8.25))

    def test_single_value(self):
        self.assertEqual(compare.quartiles([4.0]), (4.0, 4.0, 4.0))

    def test_spread_is_quartile_distance_over_median(self):
        self.assertAlmostEqual(compare.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
                               5.5 / 5.5)


class Verdict(unittest.TestCase):
    def test_worse_share_follows_direction(self):
        self.assertAlmostEqual(compare.worse_share(10.0, 11.0, "lower"), 0.1)
        self.assertAlmostEqual(compare.worse_share(10.0, 11.0, "higher"), -0.1)

    def test_regression_beyond_bound(self):
        a = seeds(10.0, 10.1, 9.9, 10.0)
        b = seeds(11.5, 11.6, 11.4, 11.5)
        self.assertEqual(compare.verdict(a, b, "lower", 0.1), "regression")
        self.assertEqual(compare.verdict(b, a, "higher", 0.1), "regression")

    def test_small_change_is_ok(self):
        a = seeds(10.0, 10.1, 9.9, 10.0)
        b = seeds(10.5, 9.8, 10.2, 10.1)
        self.assertEqual(compare.verdict(a, b, "lower", 0.1), "ok")

    def test_unresolved_when_spread_exceeds_bound(self):
        a = seeds(8.0, 12.0, 9.0, 11.0)
        b = seeds(8.5, 12.5, 9.5, 10.0)
        self.assertEqual(compare.verdict(a, b, "lower", 0.1), "unresolved")

    def test_noisy_but_every_run_better_is_improved(self):
        a = seeds(8.0, 12.0, 9.0, 11.0)
        b = seeds(5.0, 7.0, 6.0, 7.5)
        self.assertEqual(compare.verdict(a, b, "lower", 0.1), "improved")

    def test_improved_needs_nine_tenths_of_pairs(self):
        a = seeds(*[10.0 + 0.01 * i for i in range(10)])
        b = dict(a)
        for s in list(b)[:9]:
            b[s] -= 0.5
        self.assertEqual(compare.verdict(a, b, "lower", 0.1), "improved")
        b = dict(a)
        for s in list(b)[:8]:
            b[s] -= 0.5
        self.assertEqual(compare.verdict(a, b, "lower", 0.1), "ok")


class Compare(unittest.TestCase):
    def test_counted_metrics_must_match_per_seed(self):
        a = rows("mp.messages", [100, 200], unit="count")
        b = rows("mp.messages", [100, 201], unit="count")
        _, failures = compare.compare(SPEC, a, b)
        self.assertEqual(failures, 1)
        _, failures = compare.compare(SPEC, a, a)
        self.assertEqual(failures, 0)

    def test_timed_layer_metrics_may_differ(self):
        _, failures = compare.compare(SPEC, rows("lb.s", [1.0]),
                                      rows("lb.s", [2.0]))
        self.assertEqual(failures, 0)

    def test_any_failed_share_increase_fails(self):
        a = rows("failed_share", [0.0, 0.0], unit="ratio")
        b = rows("failed_share", [0.0, 0.001], unit="ratio")
        _, failures = compare.compare(SPEC, a, b)
        self.assertEqual(failures, 1)

    def test_e2e_regression_counts(self):
        a = rows("wall_s", [10.0, 10.0, 10.0])
        b = rows("wall_s", [12.0, 12.0, 12.0])
        lines, failures = compare.compare(SPEC, a, b)
        self.assertEqual(failures, 1)
        self.assertIn("regression", lines[-1])


if __name__ == "__main__":
    unittest.main()
