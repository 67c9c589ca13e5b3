#!/usr/bin/env python3
"""The benchmark's own tests, at tiny scale.

    python3 perfbench/test_perfbench.py

- every metric of BENCHMARK.json (and every per-statement detail metric) is
  emitted with its unit, untraced and traced;
- each correctness oracle rejects a deliberately perturbed result;
- compare.py gives the four verdicts on synthetic result sets.

Builds into .bench_build/ like run.py; scratch files go to
.bench_build/test-tmp/.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = run.build_dir() / "test-tmp"

# The per-statement end-to-end figures each workload prints besides the
# bounded metrics.
DETAIL = {
    "layer4_ops": {"kmeans_op_s": "s", "pagerank_op_s": "s", "nb_op_s": "s",
                   "error_rate": "ratio"},
    "layer3_sql": {"pagerank_iterate_s": "s", "pagerank_cte_s": "s",
                   "kmeans_iterate_s": "s", "kmeans_cte_s": "s",
                   "nb_sql_s": "s", "error_rate": "ratio",
                   "known_defect.unmodified_kmeans_sql_wrong": "count"},
    "serving_mixed": {"serving_stmts_per_s": "1/s", "read_p50_ms": "ms",
                      "read_p99_ms": "ms", "write_p50_ms": "ms",
                      "write_p99_ms": "ms", "error_rate": "ratio",
                      "share.read_adhoc": "ratio",
                      "share.read_prepared": "ratio",
                      "share.read_join": "ratio",
                      "share.read_events": "ratio", "share.write": "ratio"},
}

# oracle -> a workload whose run exercises it.
ORACLES = {
    "kmeans_op": "layer4_ops",
    "pagerank_op": "layer4_ops",
    "nb_op": "layer4_ops",
    "pagerank_iterate": "layer3_sql",
    "pagerank_cte": "layer3_sql",
    "kmeans_iterate": "layer3_sql",
    "kmeans_cte": "layer3_sql",
    "nb_sql": "layer3_sql",
    "serving_point": "serving_mixed",
    "serving_join": "serving_mixed",
    "serving_events": "serving_mixed",
    "serving_recovery": "serving_mixed",
}


def bench(workload, trace, extra=()):
    """Runs run.py at tiny scale; returns (result line, full result)."""
    out = SCRATCH / ("%s-%d.json" % (workload, trace))
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "2", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny", "--out", str(out)] + list(extra),
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError("run.py failed:\n" + proc.stderr[-3000:])
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return line, json.loads(out.read_text())


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        cls.binary = run.build()
        if cls.binary is None:
            raise RuntimeError("build failed")

    def assert_result_line(self, line, declared):
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertTrue(line["correct"])
        self.assertGreaterEqual(line["attempted"], 1)
        self.assertEqual(line["failed"], 0)
        self.assertEqual(set(line["metrics"]), set(declared))
        for name, unit in declared.items():
            self.assertEqual(line["metrics"][name]["unit"], unit, name)
            self.assertIsInstance(line["metrics"][name]["value"], (int, float),
                                  name)

    def test_untraced_emits_every_end_to_end_metric(self):
        declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for w in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=w):
                line, full = bench(w, 0)
                self.assert_result_line(line, declared)
                for name, unit in DETAIL[w].items():
                    self.assertEqual(full["detail"][name]["unit"], unit, name)
                    self.assertGreater(full["detail"][name]["samples"], 0)

    def test_traced_emits_every_per_layer_metric(self):
        declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        line, full = bench("serving_mixed", 1)
        self.assert_result_line(line, declared)
        spans = ROOT / full["info"]["spans"]
        first = json.loads(spans.read_text().splitlines()[0])
        self.assertEqual(set(first), {"id", "name", "start_ns", "end_ns",
                                      "parent", "stmt", "self_us"})

    def test_each_oracle_rejects_a_perturbed_result(self):
        for oracle, workload in ORACLES.items():
            with self.subTest(oracle=oracle):
                tmp = SCRATCH / ("perturb-" + oracle)
                proc = subprocess.run(
                    [str(self.binary), "--workload", workload, "--seed", "2",
                     "--seconds", "0.5", "--trace", "0", "--scale", "tiny",
                     "--tmp", str(tmp), "--perturb", oracle],
                    cwd=ROOT, capture_output=True, text=True, timeout=300,
                    env=dict(os.environ, SODA_THREADS=run.POOL_THREADS))
                shutil.rmtree(tmp, ignore_errors=True)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertFalse(result["correct"])
                self.assertIn("ORACLE FAILED %s:" % oracle, proc.stderr)

    def test_compare_verdicts(self):
        def write(directory, values, seeds=None):
            directory.mkdir(parents=True, exist_ok=True)
            for i, v in enumerate(values):
                seed = i if seeds is None else seeds[i]
                (directory / ("r%02d.json" % i)).write_text(json.dumps({
                    "run": {"workload": "w", "seed": seed, "trace": 0},
                    "metrics": {"stmts_per_s": {"value": v}},
                    "detail": {}}))

        def judge(parent_values, change_values, seeds=None):
            parent = SCRATCH / "cmp-parent"
            change = SCRATCH / "cmp-change"
            for d in (parent, change):
                shutil.rmtree(d, ignore_errors=True)
            write(parent, parent_values, seeds)
            write(change, change_values, seeds)
            p, c = compare.load(parent), compare.load(change)
            key = ("w", "stmts_per_s")
            return compare.verdict(p[key], c[key], 0.15, "higher")[0]

        base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        cases = {
            "unchanged": [101, 100, 99, 101, 101, 99, 100, 100, 100, 99],
            "improved": [v * 1.3 for v in base],
            "worse": [v * 0.7 for v in base],
            "unresolved": [60, 140, 70, 130, 100, 65, 135, 100, 80, 120],
        }
        for want, values in cases.items():
            with self.subTest(verdict=want):
                self.assertEqual(judge(base, values), want)
        # Fewer than 10 runs a side never resolve, however clear they look.
        for n in (1, 5, 9):
            with self.subTest(runs=n):
                self.assertEqual(
                    judge(base[:n], [v * 1.3 for v in base[:n]]), "unresolved")
                self.assertEqual(
                    judge(base[:n], [v * 0.7 for v in base[:n]]), "unresolved")
        # Repeated runs of one seed are separate samples, paired in order.
        with self.subTest(verdict="improved, one seed"):
            self.assertEqual(
                judge(base, [v * 1.3 for v in base], seeds=[1] * 10),
                "improved")


if __name__ == "__main__":
    unittest.main()
