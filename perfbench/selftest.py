"""Self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py

Runs every workload with small instances, untraced and traced, and checks
that every metric BENCHMARK.json names is printed with its unit, that the
traced and untraced passes count the same failures, that per-layer self
times sum to at most the op wall time, and that the command fails without a
result where the library is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", "--tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def parse(out: subprocess.CompletedProcess) -> tuple[dict, list[str]]:
    if out.returncode:
        raise AssertionError(f"exit {out.returncode}: {out.stderr[-3000:]}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


class TinyRuns(unittest.TestCase):
    def check_metrics(self, result: dict, lines: list[str], specs: list[dict]):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        printed = {ln.split()[0]: ln.split()[1:3] for ln in lines if ln.split()}
        for m in specs:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertEqual(printed[m["name"]][1], m["unit"], m["name"])
            self.assertEqual(float(printed[m["name"]][0]), got["value"], m["name"])

    def test_untraced(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result, lines = parse(bench("--workload", name, "--seed", "1",
                                            "--trace", "0"))
                self.check_metrics(result, lines, SPEC["end_to_end"])
                self.assertTrue(any(ln.startswith("failed_ratio ") for ln in lines))
                self.assertTrue(any(ln.startswith("inputs sha256=") for ln in lines))

    def test_traced(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result, lines = parse(bench("--workload", name, "--seed", "2",
                                            "--trace", "1"))
                self.check_metrics(result, lines, SPEC["per_layer"])
                trace = dict(kv.split("=", 1) for ln in lines
                             if ln.startswith("trace ") for kv in ln.split()[1:])
                self.assertEqual(trace["failed_traced"], trace["failed_untraced"])
                self.assertEqual(int(trace["failed_traced"]), result["failed"])
                self.assertLessEqual(float(trace["layer_self_sum_s"]),
                                     float(trace["op_wall_s"]))
                self.assertGreater(result["metrics"]["lapack.calls"]["value"], 0)

    def test_fails_without_library(self):
        (ROOT / ".perfbench_out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, Path(tmp) / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            out = bench("--workload", WORKLOADS[0], "--seed", "1", "--trace", "0",
                        cwd=tmp)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
