#!/usr/bin/env python3
"""Unit tests for compare.py on synthetic result sets.

    python3 bench/e2e/test_compare.py
"""
import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402
import run  # noqa: E402

BENCHMARK = {
    "end_to_end": [
        {"name": "solve_s", "unit": "s", "better": "lower", "bound": 0.05},
        {"name": "particle_steps_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.05},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.10},
    ],
}
BOUNDS = {m["name"]: (m["bound"], m["better"], {})
          for m in BENCHMARK["end_to_end"]}


def metric(value, q1=None, q3=None):
    m = {"value": value, "unit": "s"}
    if q1 is not None:
        m.update(q1=q1, q3=q3, n=10)
    return m


def doc(solve=1.0, rate=100.0, setup=0.01, failed_frac=0.0, **extra):
    metrics = {"solve_s": metric(solve), "particle_steps_per_s": metric(rate),
               "setup_s": metric(setup)}
    metrics.update(extra)
    return {"workloads": {"w": {"metrics": metrics, "failed_frac": failed_frac}}}


def outcomes(base, new):
    return {(w, m): o for w, m, _, _, o in compare.compare(base, new, BOUNDS)}


class ClassifyTest(unittest.TestCase):
    def test_each_outcome_for_a_lower_is_better_metric(self):
        self.assertEqual(compare.classify(metric(1.0), metric(1.03), 0.05, "lower"),
                         "within")
        self.assertEqual(compare.classify(metric(1.0), metric(1.10), 0.05, "lower"),
                         "worse")
        self.assertEqual(compare.classify(metric(1.0), metric(0.90), 0.05, "lower"),
                         "better")

    def test_spread_wider_than_the_bound_is_unresolved(self):
        noisy = metric(1.0, q1=0.9, q3=1.1)
        self.assertEqual(compare.classify(noisy, metric(1.5), 0.05, "lower"),
                         "unresolved")
        self.assertEqual(compare.classify(metric(1.0), noisy, 0.05, "lower"),
                         "unresolved")
        tight = metric(1.0, q1=0.99, q3=1.01)
        self.assertEqual(compare.classify(tight, metric(1.5), 0.05, "lower"),
                         "worse")

    def test_higher_is_better_flips_the_direction(self):
        self.assertEqual(compare.classify(metric(100), metric(90), 0.05, "higher"),
                         "worse")
        self.assertEqual(compare.classify(metric(100), metric(110), 0.05, "higher"),
                         "better")
        self.assertEqual(compare.classify(metric(100), metric(97), 0.05, "higher"),
                         "within")

    def test_absolute_floor(self):
        # +400 %, but under the 1 ms floor.
        self.assertEqual(
            compare.classify(metric(1e-4), metric(5e-4), 0.10, "lower", 1e-3),
            "within")
        self.assertEqual(
            compare.classify(metric(1e-4), metric(2e-3), 0.10, "lower", 1e-3),
            "worse")
        # Above the floor the share applies.
        self.assertEqual(
            compare.classify(metric(0.1), metric(0.12), 0.10, "lower", 1e-3),
            "worse")

    def test_missing_values_are_not_applicable(self):
        self.assertEqual(compare.classify(None, metric(1.0), 0.05, "lower"), "n/a")
        self.assertEqual(compare.classify(metric(1.0), metric(None), 0.05, "lower"),
                         "n/a")


class CompareTest(unittest.TestCase):
    def test_rows_per_workload_and_metric(self):
        base = doc()
        base["workloads"]["v"] = doc()["workloads"]["w"]
        rows = compare.compare(base, base, BOUNDS)
        self.assertEqual(len(rows), 2 * (len(BOUNDS) + 1))
        self.assertTrue(all(row[4] == "within" for row in rows))

    def test_setup_floor_applies_to_setup_s_only(self):
        got = outcomes(doc(solve=1e-4, setup=1e-4), doc(solve=5e-4, setup=5e-4))
        self.assertEqual(got[("w", "setup_s")], "within")
        self.assertEqual(got[("w", "solve_s")], "worse")

    def test_metric_missing_on_one_side_is_not_applicable(self):
        new = doc()
        del new["workloads"]["w"]["metrics"]["solve_s"]
        self.assertEqual(outcomes(doc(), new)[("w", "solve_s")], "n/a")
        extra = doc()
        extra["workloads"]["only_new"] = doc()["workloads"]["w"]
        got = outcomes(doc(), extra)
        self.assertEqual(got[("only_new", "solve_s")], "n/a")
        self.assertEqual(got[("only_new", "failed_frac")], "n/a")

    def test_a_workload_bound_overrides_the_metric_bound(self):
        bounds = dict(BOUNDS, solve_s=(0.10, "lower", {"w": 0.02}))
        base = doc()
        base["workloads"]["v"] = doc()["workloads"]["w"]
        new = doc(solve=1.05)
        new["workloads"]["v"] = doc(solve=1.05)["workloads"]["w"]
        got = {(w, m): o for w, m, _, _, o in compare.compare(base, new, bounds)}
        self.assertEqual(got[("w", "solve_s")], "worse")
        self.assertEqual(got[("v", "solve_s")], "within")

    def test_any_rise_in_failed_frac_is_worse(self):
        got = outcomes(doc(), doc(failed_frac=0.1))
        self.assertEqual(got[("w", "failed_frac")], "worse")
        got = outcomes(doc(failed_frac=0.1), doc())
        self.assertEqual(got[("w", "failed_frac")], "better")


class MainTest(unittest.TestCase):
    def run_main(self, base, new):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, content in (("bench.json", BENCHMARK), ("bounds.json", {}),
                                  ("a.json", base), ("b.json", new)):
                paths.append(os.path.join(tmp, name))
                with open(paths[-1], "w") as f:
                    json.dump(content, f)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = compare.main([paths[2], paths[3], "--benchmark", paths[0],
                                       "--bounds", paths[1]])
            return status, out.getvalue()

    def test_exit_codes(self):
        status, out = self.run_main(doc(), doc(solve=1.02))
        self.assertEqual(status, 0)
        self.assertIn("within", out)
        self.assertEqual(self.run_main(doc(), doc(solve=1.2))[0], 1)
        self.assertEqual(self.run_main(doc(), doc(solve=0.8))[0], 0)
        self.assertEqual(self.run_main(doc(), doc(failed_frac=0.05))[0], 1)
        noisy = doc(solve_s=metric(1.0, q1=0.8, q3=1.2))
        self.assertEqual(self.run_main(noisy, doc(solve=1.5))[0], 0)


class RepositoryBoundsTest(unittest.TestCase):
    def test_workload_bounds_name_known_pairs_and_are_no_looser(self):
        bounds = compare.load_bounds(os.path.join(compare.ROOT, "BENCHMARK.json"),
                                     os.path.join(compare.HERE, "bounds.json"))
        with open(os.path.join(compare.HERE, "bounds.json")) as f:
            raw = json.load(f)
        self.assertLessEqual(set(raw), set(bounds))
        for name, per_workload in raw.items():
            self.assertLessEqual(set(per_workload), set(run.WORKLOADS))
            for w, entry in per_workload.items():
                self.assertLessEqual(entry["bound"], bounds[name][0], (name, w))


if __name__ == "__main__":
    unittest.main()
