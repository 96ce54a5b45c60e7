"""Quick checks of the benchmark itself, at tiny size (about 30 s):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from itertools import islice
from pathlib import Path

import run
import worker
from workloads import EXCLUDED_P, WORKLOADS, Workload, factor_op, is_prime

HERE = Path(__file__).resolve().parent


def _rounds(name: str, seed: int, count: int) -> list:
    return list(islice(WORKLOADS[name].rounds(random.Random(seed)), count))


def p_excluded(p: int) -> bool:
    return any(p > lo and (hi is None or p <= hi) for lo, hi in EXCLUDED_P)


def _worker(*args: str) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, **run.WORKER_ENV), timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


class Manifest(unittest.TestCase):
    def test_benchmark_json_matches_harness(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)

    def test_end_to_end_run_prints_every_metric(self):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             "factor_sweep", "--seed", "1", "--seconds", "1"],
            capture_output=True, text=True, check=True, timeout=120)
        result = json.loads(out.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         run.END_TO_END)
        self.assertTrue(all(v["value"] > 0
                            for v in result["metrics"].values()))
        self.assertIn("factor_sweep failed_frac 0.0000 ratio", out.stdout)

    def test_refuses_without_program_sources(self):
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            bench = Path(tmp) / "perfbench"
            bench.mkdir()
            for path in HERE.glob("*.py"):
                shutil.copy(path, bench)
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "factor_sweep", "--seed", "1", "--seconds", "1"],
                capture_output=True, text=True, cwd=tmp, timeout=60)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


class Trace(unittest.TestCase):
    def test_counts_repeat_and_every_metric_resolves(self):
        args = ("--workload", "factor_sweep", "--seed", "5", "--rounds", "1",
                "--trace")
        first, second = _worker(*args), _worker(*args)
        self.assertEqual(run._counts(first), run._counts(second))
        spans = first["trace"]["spans"]
        special = {"predict.s", "ffield.alpha_order_tables.builds"}
        for name in run.PER_LAYER:
            span, field = name.rsplit(".", 1)
            if field in ("s", "self_s", "calls") and name not in special:
                self.assertIn(span, spans, name)
        metrics = run.per_layer(WORKLOADS["factor_sweep"], first,
                                [first, second])
        self.assertEqual(list(metrics), list(run.PER_LAYER))
        self.assertGreater(metrics["polys.np_gcd.calls"], 0)
        self.assertEqual(metrics["graph.build_graph.self_s"], 0)


class Failures(unittest.TestCase):
    def test_wrong_answer_and_refusal_are_counted(self):
        lib = worker.import_chebdyn()
        real = lib.factor.factor_pattern_actual
        wrong = lib.factor.FactorPattern(((1, 1, 1),))

        def injected(ell, p, n, t):
            if t == 1:
                return wrong
            if t == 2:
                raise ValueError("injected refusal")
            return real(ell, p, n, t)

        tiny = Workload("tiny", None, factor_op, 50, 1)
        lib.factor.factor_pattern_actual = injected
        try:
            res = worker.run(tiny, lib, iter(()), None, 1,
                             [(3, 7, 1, t) for t in range(4)])
        finally:
            lib.factor.factor_pattern_actual = real
        self.assertEqual((res["mismatches"], res["errors"]), (1, 1))
        self.assertEqual(len(res["latencies"]), 4)
        res["peak_rss_kb"] = 1
        raw = run.end_to_end(tiny, [(1.0, 1.0)], res, ref_s=None)
        self.assertAlmostEqual(raw["ops_per_s"], 2 / sum(res["latencies"]))
        # the reported value is taken at the nominal host speed
        res["refs"] = [2 * run.REF_NOMINAL_S] * len(res["refs"])
        metrics = run.end_to_end(tiny, [(1.0, 2 * run.REF_NOMINAL_S)], res)
        self.assertAlmostEqual(metrics["ops_per_s"], 2 * raw["ops_per_s"])
        self.assertAlmostEqual(metrics["setup_s"], 0.5)


class Inputs(unittest.TestCase):
    def test_one_seed_gives_identical_inputs(self):
        for name in WORKLOADS:
            self.assertEqual(_rounds(name, 7, 3), _rounds(name, 7, 3), name)
            self.assertNotEqual(_rounds(name, 7, 3), _rounds(name, 8, 3),
                                name)

    def test_large_p_generator_skips_excluded_ranges(self):
        self.assertEqual(EXCLUDED_P, ((2 * 10 ** 7, 1 << 26),
                                      (3 * 10 ** 9, None)))
        self.assertTrue(p_excluded(30000001) and p_excluded(10 ** 12 + 39))
        self.assertFalse(p_excluded(10000019) or p_excluded(100000007))
        for seed in range(200):
            for rnd in _rounds("factor_large_p", seed, 2):
                for ell, p, n, t in rnd:
                    self.assertTrue(is_prime(p) and not p_excluded(p), p)
                    self.assertTrue(10 ** 4 <= p < 3 * 10 ** 9, p)
                    self.assertTrue(ell ** n <= 81 and 0 <= t < p)

    def test_sweep_inputs_stay_in_their_domains(self):
        for rnd in _rounds("factor_sweep", 3, 50):
            for ell, p, n, t in rnd:
                self.assertTrue(p <= 47 and p != ell and ell ** n <= 243)
                self.assertTrue(0 <= t < p)
        self.assertEqual(len(_rounds("verify_sweep", 3, 1)[0]), 97)


if __name__ == "__main__":
    unittest.main()
