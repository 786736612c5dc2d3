"""Smoke test of the benchmark itself, at tiny input sizes.

Run from the checkout root::

    python3 perfbench/smoke_test.py

Checks that every workload prints every metric named in ``BENCHMARK.json``
with its unit, traced and untraced; that a perturbed output trips the
output check (exit code 1, ``correct`` false); and that the benchmark
refuses to start where the program is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def tiny(workload: str, trace: int, seed: int = 7, *extra: str) -> tuple[int, dict]:
    proc = bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--size", "tiny", *extra,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, result = tiny(workload, trace)
                    self.assertEqual(code, 0, result)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    units = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(units, expected)

    def test_perturbed_output_trips_the_output_check(self):
        # seed 7 compares with the recorded digest, seed 8 with the other iterations
        for workload, seed in [(w, 7) for w in WORKLOADS] + [(WORKLOADS[0], 8)]:
            with self.subTest(workload=workload, seed=seed):
                code, result = tiny(workload, 0, seed, "--perturb")
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)

    def test_refuses_to_start_without_the_program(self):
        bare = ROOT / ".perfbench_work" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", WORKLOADS[0], "--seed", "7", "--seconds", "1",
                         "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
