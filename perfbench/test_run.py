"""Smoke test of run.py: a tiny run of every workload, traced
and untraced, prints every metric of BENCHMARK.json by name.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root; the first run builds the benchmark.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


class TinyRuns(unittest.TestCase):
    def bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
            cwd=ROOT, capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return proc.stdout.strip().splitlines()

    def test_every_workload_prints_every_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            defs = json.load(f)
        for workload in run.WORKLOADS:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    lines = self.bench(workload, trace)
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], result)
                    self.assertGreaterEqual(result["attempted"], 1)
                    names = [m["name"] for m in defs[group]]
                    self.assertEqual(list(result["metrics"]), names)
                    for m in defs[group]:
                        self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
                        self.assertTrue(
                            any(line.split()[:1] == [m["name"]] and line.endswith(m["unit"])
                                for line in lines[:-1]),
                            f"{m['name']} is not printed with its unit")


if __name__ == "__main__":
    unittest.main()
