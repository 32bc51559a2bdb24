"""Tests of the spread helper used to judge the benchmark's steadiness."""

import statistics
import unittest

from spread import spread


class SpreadTest(unittest.TestCase):

    def test_matches_python_quartiles(self):
        values = [10.0, 11.0, 9.0, 12.0, 10.5, 9.5, 10.2, 11.5, 9.8, 10.1]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(spread(values), (q3 - q1) / statistics.median(values))

    def test_constant_values_have_no_spread(self):
        self.assertEqual(spread([1.0] * 10), 0.0)

    def test_zero_median_with_spread_is_unbounded(self):
        self.assertEqual(spread([-1.0, 0.0, 0.0, 0.0, 1.0]), float("inf"))

    def test_scale_free(self):
        values = [3.0, 4.0, 5.0, 6.0, 7.0]
        self.assertAlmostEqual(spread(values), spread([v * 1000 for v in values]))


if __name__ == "__main__":
    unittest.main()
