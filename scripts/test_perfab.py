"""Unit tests for perfab's statistics helpers: python3 -m unittest discover -s scripts"""

import unittest

import perfab


class Stats(unittest.TestCase):
    def test_quartiles_interpolate(self):
        self.assertEqual(perfab.quartiles([1, 2, 3, 4, 5]), (2, 3, 4))
        q1, med, q3 = perfab.quartiles([1, 2, 3, 4])
        self.assertAlmostEqual(q1, 1.75)
        self.assertAlmostEqual(med, 2.5)
        self.assertAlmostEqual(q3, 3.25)
        self.assertEqual(perfab.quartiles([7]), (7, 7, 7))
        with self.assertRaises(ValueError):
            perfab.quartiles([])

    def test_wins_direction_and_ties(self):
        pairs = [(2, 1), (2, 3), (2, 2)]
        self.assertEqual(perfab.wins(pairs, "lower"), 1)
        self.assertEqual(perfab.wins(pairs, "higher"), 1)

    def test_gain_needs_nine_of_ten_and_median_beyond_iqr(self):
        # Ten pairs, change lower on all: a gain when the drop exceeds
        # the base's IQR.
        base = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
        clear = [(b, b - 1.0) for b in base]
        s = perfab.summarize(clear, "lower")
        self.assertEqual(s["wins"], 10)
        self.assertTrue(s["gain"])
        # Same wins, but the median moved less than the base IQR (0.45).
        small = [(b, b - 0.01) for b in base]
        self.assertFalse(perfab.summarize(small, "lower")["gain"])
        # A large shift won on only 8 of 10 pairs is no gain.
        mixed = clear[:8] + [(b, b + 5) for b in base[8:]]
        self.assertEqual(perfab.summarize(mixed, "lower")["wins"], 8)
        self.assertFalse(perfab.summarize(mixed, "lower")["gain"])
        # Higher-is-better metrics count the other way.
        up = [(b, b + 1.0) for b in base]
        self.assertTrue(perfab.summarize(up, "higher")["gain"])
        self.assertFalse(perfab.summarize(up, "lower")["gain"])

    def test_ratio_is_change_over_base(self):
        s = perfab.summarize([(2.0, 1.0), (2.0, 1.0), (2.0, 1.0)], "lower")
        self.assertAlmostEqual(s["ratio"], 0.5)


if __name__ == "__main__":
    unittest.main()
