"""Tests of the benchmark's metric names and of run.py's result checks.

Run through `python3 perfbench/run.py --selftest` (which also runs the
native tests) or directly with `python3 -m unittest` from perfbench/.
"""

import copy
import glob
import json
import os
import re
import unittest

import run

ROOT = os.path.dirname(run.HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def load():
    with open(SPEC_PATH) as f:
        return json.load(f)


def emitted_metrics():
    """(name, unit) pairs the C++ program can emit, read from its source."""
    pairs = set()
    add = re.compile(r'Add\(\s*"([^"]+)",.*"([^"]+)"\s*\)\s*;$', re.S)
    for path in glob.glob(os.path.join(run.HERE, "*.cpp")):
        with open(path) as f:
            text = f.read()
        for call in re.finditer(r"->Add\(|out->Add\(", text):
            end = text.index(";", call.start())
            m = add.search(text[call.start():end + 1])
            if m:
                pairs.add((m.group(1), m.group(2)))
    return pairs


class SpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = load()

    def test_top_level_keys(self):
        self.assertEqual(set(self.spec), {
            "command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"})
        self.assertTrue(1 <= self.spec["run_seconds"] <= 60)
        self.assertIsInstance(self.spec["run_seconds"], int)
        self.assertTrue(2 <= len(self.spec["workloads"]) <= 8)
        self.assertTrue(1 <= len(self.spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(self.spec["per_layer"]) <= 128)

    def test_names_valid_and_unique(self):
        names = [w["name"] for w in self.spec["workloads"]]
        names += [m["name"] for m in self.spec["end_to_end"]]
        names += [m["name"] for m in self.spec["per_layer"]]
        for name in names:
            self.assertRegex(name, run.NAME_RE)
        self.assertEqual(len(names), len(set(names)), "a name is reused")

    def test_metric_entries(self):
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["unit"], run.UNIT_RE)
            self.assertIn(m["better"], ("higher", "lower"))

    def test_setup_metric_has_largest_bound(self):
        by_name = {m["name"]: m for m in self.spec["end_to_end"]}
        setup = by_name["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in self.spec["end_to_end"]))

    def test_workload_why_is_one_short_line(self):
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_program_emits_only_declared_metrics(self):
        declared = {m["name"]: m["unit"] for m in
                    self.spec["end_to_end"] + self.spec["per_layer"]}
        emitted = emitted_metrics()
        self.assertTrue(emitted)
        for name, unit in emitted:
            self.assertIn(name, declared)
            self.assertEqual(unit, declared[name], name)
        # The shared loop metrics come from one helper, cost_ratio from each
        # workload: together they are the whole end-to-end set.
        self.assertEqual({m["name"] for m in self.spec["end_to_end"]},
                         {n for n, _ in emitted if n in {
                             m["name"] for m in self.spec["end_to_end"]}})
        # Every per-layer metric is measured by some workload.
        self.assertEqual({m["name"] for m in self.spec["per_layer"]},
                         {n for n, _ in emitted} -
                         {m["name"] for m in self.spec["end_to_end"]})


class ValidateResultTest(unittest.TestCase):
    def setUp(self):
        self.spec = load()
        self.good = {
            "correct": True, "attempted": 3, "failed": 0,
            "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]}
                        for m in self.spec["end_to_end"]}}

    def test_accepts_complete_result(self):
        metrics, missing = run.validate_result(self.good, self.spec, 0)
        self.assertEqual(list(metrics),
                         [m["name"] for m in self.spec["end_to_end"]])
        self.assertEqual(missing, [])

    def bad(self, mutate, trace=0):
        result = copy.deepcopy(self.good)
        mutate(result)
        with self.assertRaises(run.BenchError):
            run.validate_result(result, self.spec, trace)

    def test_rejects_undeclared_name(self):
        self.bad(lambda r: r["metrics"].update(
            {"bogus_ms": {"value": 1.0, "unit": "ms"}}))

    def test_rejects_wrong_unit(self):
        self.bad(lambda r: r["metrics"]["p50_ms"].update({"unit": "s"}))

    def test_rejects_missing_end_to_end_metric(self):
        self.bad(lambda r: r["metrics"].pop("setup_s"))

    def test_rejects_non_finite_value(self):
        self.bad(lambda r: r["metrics"]["p50_ms"].update(
            {"value": float("nan")}))

    def test_rejects_extra_key_and_bad_counts(self):
        self.bad(lambda r: r.update({"extra": 1}))
        self.bad(lambda r: r.update({"attempted": 0}))
        self.bad(lambda r: r.update({"failed": 1.5}))

    def test_trace_fills_unmeasured_layers(self):
        first = self.spec["per_layer"][0]
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {first["name"]: {"value": 2.0,
                                              "unit": first["unit"]}}}
        metrics, missing = run.validate_result(result, self.spec, 1)
        self.assertEqual(len(metrics), len(self.spec["per_layer"]))
        self.assertEqual(metrics[first["name"]]["value"], 2.0)
        self.assertEqual(len(missing), len(self.spec["per_layer"]) - 1)
        # End-to-end names are not per-layer names.
        self.bad(lambda r: None, trace=1)


class SpreadTest(unittest.TestCase):
    def test_quartile_spread(self):
        median, s = run.spread([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual(median, 3.0)
        self.assertAlmostEqual(s, (4.5 - 1.5) / 3.0)

    def test_every_bounded_metric_is_gated(self):
        # setup_s included: a spread past its bound fails --steady.
        for m in load()["end_to_end"]:
            self.assertEqual(run.spread_verdict(m["bound"] * 1.01,
                                                m["bound"]), "NOISY",
                             m["name"])
            self.assertEqual(run.spread_verdict(m["bound"] / 4, m["bound"]),
                             "steady")
        self.assertEqual(run.spread_verdict(5.0, None), "")


if __name__ == "__main__":
    unittest.main()
