"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

Every workload runs end to end at its tiny size, untraced and traced; each
output check passes on the real outputs and fails when one value in them is
corrupted.  The file name keeps pytest from collecting these tests into the
package's own suite.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(workload, trace, seed=1):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.returncode
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tiny_data(name, seed=1):
    w = WORKLOADS[name]
    results = [(label, thunk()) for label, thunk in w.operations("tiny")]
    return w, w.collect(results, "tiny", seed)


class TestBenchmarkFile(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)


class TestTinyRuns(unittest.TestCase):
    def test_untraced(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                res = bench(name, 0)
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreater(res["attempted"], 0)
                self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, run.END_TO_END)
                self.assertTrue(all(v["value"] > 0 for v in res["metrics"].values()))

    def test_traced(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                first, second = bench(name, 1, seed=1), bench(name, 1, seed=2)
                self.assertTrue(first["correct"] and second["correct"])
                m = {k: v["value"] for k, v in first["metrics"].items()}
                self.assertEqual({k: v["unit"] for k, v in first["metrics"].items()}, run.PER_LAYER)
                for count in run.COUNTS:
                    self.assertEqual(m[count], second["metrics"][count]["value"], count)
                if name in ("strip-inversion", "scalar-identities"):
                    self.assertEqual(m["laurent.gcd_calls"], 0)
                    self.assertEqual(m["hecke.kl_basis_s"], 0)
                    self.assertEqual(m["hecke.kl_columns"], 0)
                else:
                    self.assertGreater(m["hecke.kl_columns"], 0)
                if name == "rmatrix-routes":
                    self.assertGreater(m["basis.solve_fixed_basis_s"], 0)
                else:
                    self.assertEqual(m["basis.solve_fixed_basis_s"], 0)
                if name == "psi-routes":
                    self.assertGreater(m["laurent.gcd_calls"], 0)
                if name == "strip-inversion":
                    self.assertGreater(m["ballot.q_polynomial_hit_ratio"], 0.5)


class TestChecksCatchCorruption(unittest.TestCase):
    def assert_caught(self, w, good, corrupt):
        self.assertEqual(w.check(good, "tiny"), [])
        bad = copy.deepcopy(good)
        corrupt(bad)
        self.assertNotEqual(w.check(bad, "tiny"), [])

    def test_psi_coefficient_flipped(self):
        w, data = tiny_data("psi-routes")

        def flip(d):
            comp = d[0][1]["psi"]["components"][-1]["value"]["q_coeffs"]
            e = next(iter(comp))
            comp[e] = str(-int(comp[e]))

        self.assert_caught(w, data, flip)

    def test_strip_polynomial_changed(self):
        w, data = tiny_data("strip-inversion")

        def change(d):
            # the term b = a has Q_I(a, a) = 1: change Q_II(a, c) there
            sample = next(s for s in d["sample"] if s["a"] != s["c"])
            q2 = next(q2 for q1, q2 in sample["terms"] if q1 == {0: 1})
            q2[0] = q2.get(0, 0) + 1

        self.assert_caught(w, data, change)

    def test_matrix_entry_changed(self):
        w, data = tiny_data("rmatrix-routes")

        def change(d):
            # an off-diagonal coefficient stays positive and in q^-1 Z[q^-1];
            # only the inversion at q = 2 can notice
            lower = d[-1]["lower"]
            rc = next(rc for rc in sorted(lower) if rc[0] != rc[1])
            e = min(lower[rc])
            lower[rc][e] += 1

        self.assert_caught(w, data, change)

    def test_sum_rule_off_by_one(self):
        w, data = tiny_data("scalar-identities")

        def change(d):
            d["bishop"][3] += 1

        self.assert_caught(w, data, change)


if __name__ == "__main__":
    unittest.main()
