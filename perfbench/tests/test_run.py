"""Tests of run.py's spread math and fingerprint-aware comparison.

Run with: python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import copy
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "points_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]
}

FINGERPRINT = {"nproc": 4, "compiler": "gcc 12.2.0",
               "build_type": "RelWithDebInfo", "sanitizers": "none",
               "assertions": False, "model_semantics_version": 1}


def result(pps, setup, fingerprint=FINGERPRINT):
    return {
        "workload": "oversub_mega", "trace": 0,
        "fingerprint": fingerprint,
        "result": {"metrics": {
            "points_per_s": {"value": pps, "unit": "1/s"},
            "setup_s": {"value": setup, "unit": "s"},
        }},
    }


class QuartileSpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        # exclusive-method quartiles: 11.75 and 17.25, median 14.5
        self.assertAlmostEqual(run.quartile_spread(values), 5.5 / 14.5)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(run.quartile_spread([2.0] * 10), 0.0)


class ManifestMetricsTest(unittest.TestCase):
    WANT = {"store.hits": "count", "point.wall_ms": "ms"}

    def test_keeps_manifest_metrics_as_floats(self):
        got = run.manifest_metrics({
            "store.hits": {"value": 5, "unit": "count"},
            "point.wall_ms": {"value": 2.5, "unit": "ms"},
            "mem.evictions": {"value": 0, "unit": "count"},
        }, self.WANT)
        self.assertEqual(got, {
            "store.hits": {"value": 5.0, "unit": "count"},
            "point.wall_ms": {"value": 2.5, "unit": "ms"},
        })
        self.assertIsInstance(got["store.hits"]["value"], float)

    def test_refuses_missing_zero_negative_and_wrong_unit(self):
        good = {"store.hits": {"value": 5.0, "unit": "count"},
                "point.wall_ms": {"value": 2.5, "unit": "ms"}}
        for name, bad in [("store.hits", None),
                          ("store.hits", {"value": 0.0, "unit": "count"}),
                          ("point.wall_ms", {"value": -1.0, "unit": "ms"}),
                          ("point.wall_ms",
                           {"value": float("nan"), "unit": "ms"}),
                          ("point.wall_ms", {"value": 2.5, "unit": "s"})]:
            metrics = dict(good)
            if bad is None:
                del metrics[name]
            else:
                metrics[name] = bad
            self.assertIsNone(run.manifest_metrics(metrics, self.WANT))


class CompareTest(unittest.TestCase):
    def test_within_bounds_passes(self):
        verdict, rows = run.compare(result(1.0, 1.0), result(0.95, 1.2),
                                    SPEC)
        self.assertEqual(verdict, "pass")
        self.assertEqual(len(rows), 2)

    def test_regression_beyond_bound_fails(self):
        verdict, _ = run.compare(result(1.0, 1.0), result(0.85, 1.0), SPEC)
        self.assertEqual(verdict, "fail")
        verdict, _ = run.compare(result(1.0, 1.0), result(1.0, 1.3), SPEC)
        self.assertEqual(verdict, "fail")

    def test_improvement_passes(self):
        verdict, _ = run.compare(result(1.0, 1.0), result(2.0, 0.5), SPEC)
        self.assertEqual(verdict, "pass")

    def test_fingerprint_mismatch_is_incomparable(self):
        other = copy.deepcopy(FINGERPRINT)
        other["nproc"] = 1
        verdict, rows = run.compare(result(1.0, 1.0),
                                    result(0.5, 1.0, other), SPEC)
        self.assertEqual(verdict, "incomparable")
        self.assertEqual(rows, [])


if __name__ == "__main__":
    unittest.main()
