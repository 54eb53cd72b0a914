"""Tests of the steadiness check's arithmetic (`python3 -m unittest`)."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import steady  # noqa: E402


class SpreadTest(unittest.TestCase):
    def test_spread_is_the_quartile_distance_over_the_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        med, q1, q3, share = steady.spread(values)
        # statistics.quantiles' default (exclusive) method.
        self.assertEqual((med, q1, q3), (5.5, 2.75, 8.25))
        self.assertAlmostEqual(share, 5.5 / 5.5)

    def test_identical_values_have_no_spread(self):
        self.assertEqual(steady.spread([3.0] * 10)[3], 0.0)

    def test_verdicts_against_the_bound(self):
        self.assertEqual(steady.verdict(0.30, 0.25), "WIDE")
        self.assertEqual(steady.verdict(0.10, 0.25), "noisy")
        self.assertEqual(steady.verdict(0.05, 0.25), "ok")
        self.assertEqual(steady.verdict(0.50, None), "")

    def test_drift_is_positive_when_the_metric_got_worse(self):
        self.assertAlmostEqual(steady.drift(2.0, 2.5, "lower"), 0.25)
        self.assertAlmostEqual(steady.drift(2.0, 1.5, "lower"), -0.25)
        self.assertAlmostEqual(steady.drift(100.0, 80.0, "higher"), 0.20)
        self.assertAlmostEqual(steady.drift(100.0, 120.0, "higher"), -0.20)


if __name__ == "__main__":
    unittest.main()
