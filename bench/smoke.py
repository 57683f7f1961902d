"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root:  python3 bench/smoke.py
"""
from __future__ import annotations

import sys
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import roots  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

run.import_package()
run.SETUP_REPEATS = 2
run.SETUP_PER_PASS = 1
run.CAL_PER_PASS = 1
# Small enough for the whole test to finish in seconds.
TINY = {
    "survey_table": {"period": 8},
    "scan_sampled": {"w": "1", "q": "2/5", "n": 16, "k": 40, "oracle_codes": 2, "oracle_rays": 2},
    "oracle_sweep": {"items": 30, "min_period": 5, "max_period": 7, "max_len": 3},
    "entropy_certs": {"items": 20, "length": 12, "i_max": 3},
}


class HarnessSmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.benchmark = run.load_benchmark()
        cls.units = run.metric_units(cls.benchmark)
        cls.records = {
            (name, trace): run.run_workload(name, 3, 0, trace, TINY[name], {})
            for name in workloads.NAMES
            for trace in (0, 1)
        }

    def test_every_metric_emitted_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            for name in workloads.NAMES:
                rec = self.records[(name, trace)]
                self.assertTrue(rec["check"]["correct"], (name, rec["check"]))
                line = run.result_line([rec], self.benchmark)
                self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                want = {m["name"]: m["unit"] for m in self.benchmark[key]}
                got = {k: v["unit"] for k, v in line["metrics"].items()}
                self.assertEqual(got, want, name)
                for value in line["metrics"].values():
                    self.assertIsInstance(value["value"], (int, float))
                printed = list(rec["metrics"]) + list(rec.get("layers", {}))
                self.assertTrue(all(self.units.get(k) for k in printed), printed)
            for name in workloads.ITEM_WORKLOADS:
                self.assertIn("item_p99_ms", self.records[(name, 0)]["metrics"])

    def test_wrong_reference_raises_failed_frac(self):
        for name in workloads.NAMES:
            sizes = TINY[name]
            inputs = workloads.generate(name, 5, sizes)
            outputs = run.run_child(name, inputs, False)["outputs"]
            base = workloads.check(name, inputs, outputs, None, 5, sizes)
            ref = workloads.make_reference(name, inputs, outputs, base.get("unsound", 0))
            good = workloads.check(name, inputs, outputs, ref, 5, sizes)
            self.assertEqual(good["failed"], base["failed"], name)
            self.assertTrue(good["correct"], name)
            bad = workloads.check(name, inputs, outputs, _corrupt(name, ref), 5, sizes)
            self.assertGreater(bad["failed"] / bad["attempted"],
                               good["failed"] / good["attempted"], name)
            self.assertFalse(bad["correct"], name)

    def test_untraced_run_has_no_wrappers(self):
        for name in workloads.NAMES:
            self.assertEqual(run.run_child(name, workloads.generate(name, 1, TINY[name]), False)["wrappers"], 0)
        traced = run.run_child("oracle_sweep", workloads.generate("oracle_sweep", 1, TINY["oracle_sweep"]), True)
        self.assertGreater(traced["wrappers"], 0)
        self.assertGreater(traced["layers"]["disks.in_disk"]["calls"], 0)

    def test_exact_root_test(self):
        poly = [-2, 0, 1]  # x^2 - 2
        self.assertTrue(roots.has_root_in(poly, Fraction(1), Fraction(2)))
        self.assertFalse(roots.has_root_in(poly, Fraction(3, 2), Fraction(2)))
        self.assertTrue(roots.has_root_in(poly, Fraction(7, 5), Fraction(3, 2)))


def _corrupt(name, ref):
    if name == "survey_table":
        return ref[:-1] + [ref[-1] + "x"]
    if name == "scan_sampled":
        return str(Fraction(ref) + Fraction(1, 1000))
    if name == "oracle_sweep":
        flipped = "N" if ref["verdicts"][0] == "F" else "F"
        return ref | {"verdicts": flipped + ref["verdicts"][1:]}
    items = list(ref["items"])
    i = next(k for k, item in enumerate(items) if item != "-")
    root, crc = items[i].split(":")
    items[i] = f"{float(root) + 0.01:.6f}:{crc}"
    return ref | {"items": items}


if __name__ == "__main__":
    unittest.main()
