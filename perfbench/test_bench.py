"""The benchmark's own test: two traced runs of one seed give identical
deterministic counters, and every per-layer metric is reported.

    python3 perfbench/test_bench.py [workload ...]     (default: cli)

Each traced run of ``finite-check``, ``saturate`` or ``symbolic`` takes
about half a minute; ``cli`` takes a few seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
COUNTER_UNITS = ("count", "B", "ratio")
TIMED = ("bench.speed_ratio",)  # a measured speed, not a counter
WORKLOADS = sys.argv[1:] or ["cli"]


def traced(workload: str, seed: int) -> dict:
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", "1",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(done.stdout.splitlines()[-1])


class TracedCountersRepeat(unittest.TestCase):
    def test_counters_identical_across_runs(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        layer_names = {m["name"] for m in spec["per_layer"]}
        counters = {
            m["name"] for m in spec["per_layer"]
            if m["unit"] in COUNTER_UNITS and m["name"] not in TIMED
        }
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, second = traced(workload, 7), traced(workload, 7)
                self.assertTrue(first["correct"] and second["correct"])
                self.assertEqual(set(first["metrics"]), layer_names)
                self.assertEqual(
                    {n: first["metrics"][n]["value"] for n in counters},
                    {n: second["metrics"][n]["value"] for n in counters},
                )
                self.assertEqual(first["failed"], second["failed"])


if __name__ == "__main__":
    unittest.main(argv=sys.argv[:1])
