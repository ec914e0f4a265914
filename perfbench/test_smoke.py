"""Smoke test for the benchmark itself: every workload at a tiny size.

    python3 perfbench/test_smoke.py

Also checks that the frozen generators are deterministic and still produce
the documents whose outputs `expected.json` records, and that the benchmark
refuses to run without the program's sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        first = [(op.key, op.text) for op in workloads.pool()]
        second = [(op.key, op.text) for op in workloads.pool()]
        self.assertEqual(first, second)

    def test_pool_matches_recorded_documents(self):
        expected = workloads.load_expected()
        pool = workloads.pool()
        self.assertEqual(sorted(op.key for op in pool), sorted(expected))
        for op in pool:
            self.assertEqual(workloads.digest(op.text), expected[op.key][0], op.key)

    def test_seed_decides_the_workload(self):
        for name in workloads.WORKLOADS:
            a = [op.key for op in workloads.build(name, 5, run.ROOT)]
            self.assertEqual(a, [op.key for op in workloads.build(name, 5, run.ROOT)])
            self.assertNotEqual(a, [op.key for op in workloads.build(name, 6, run.ROOT)])


class TinyRunTest(unittest.TestCase):
    def check(self, trace: bool, section: str):
        want = {m["name"]: m["unit"] for m in BENCH[section]}
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                report = run.measure(name, seed=3, seconds=0.01, trace=trace, tiny=True)
                result = report["result"]
                self.assertTrue(result["correct"], report["info"]["failures"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)

    def test_untraced(self):
        self.check(False, "end_to_end")

    def test_traced(self):
        self.check(True, "per_layer")


class BareDirectoryTest(unittest.TestCase):
    def test_refuses_without_sources(self):
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            for rel in BENCH["paths"]:
                shutil.copytree(run.ROOT / rel, Path(tmp) / rel, ignore=shutil.ignore_patterns("__pycache__"))
            cmd = BENCH["command"] + ["--workload", "small-docs", "--seed", "1", "--seconds", "1", "--trace", "0"]
            res = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(res.returncode, 0)
        self.assertEqual(res.stdout, "")


if __name__ == "__main__":
    unittest.main()
