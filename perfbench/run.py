"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout that holds ``src/henkin``.  Workloads:
``finite-check``, ``saturate``, ``symbolic``, ``cli`` (see ``README.md``).

With ``--trace 0`` it starts ``SETUP_WORKERS`` fresh set-up-only worker
processes and then one measuring worker (one closed-loop client: each
operation starts when the previous one has ended), and prints the six
end-to-end metrics.  With ``--trace 1`` one worker makes an untraced and a
traced pass and the per-layer metrics are printed.  Every time is in
reference-speed seconds (see ``speed.py``); raw seconds and the speed ratio
are printed beside them.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("finite-check", "saturate", "symbolic", "cli")
SETUP_WORKERS = 6  # plus the measuring worker's own set-up: median of 7
WORKER_TIMEOUT_S = 150


def worker(mode: str, args, seconds: float = 0.0) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"worker ({mode}) exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "henkin" / "__init__.py").is_file():
        raise SystemExit(f"no henkin sources under {ROOT / 'src'}")

    if args.trace:
        run = worker("trace", args)
        metrics = run["layers"]
        units = _layer_units()
    else:
        setups = [worker("setup", args) for _ in range(SETUP_WORKERS)]
        run = worker("measure", args, args.seconds)
        setups.append(run)
        op_deciles = statistics.quantiles(run["op_ms"], n=10)
        raw_deciles = statistics.quantiles(run["op_raw_ms"], n=10)
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_s": statistics.median(run["wall_s"]),
            "op_p50_ms": op_deciles[4],
            "op_p90_ms": op_deciles[8],
            "ok_ratio": (run["ops"] - len(run["failures"]) - len(run["wrong"])) / run["ops"],
            "peak_rss_mb": run["peak_rss_mb"],
        }
        raw = {
            "setup_s": statistics.median(s["setup_raw_s"] for s in setups),
            "wall_s": statistics.median(run["wall_raw_s"]),
            "op_p50_ms": raw_deciles[4],
            "op_p90_ms": raw_deciles[8],
        }
        units = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                 "ok_ratio": "ratio", "peak_rss_mb": "MB"}
        print(f"{args.workload} seed {args.seed}: {run['ops']} operations, {run['passes']} passes, "
              f"{len(run['op_ms'])} latency samples, speed ratio {run['speed_ratio']:.4f}")
        for name, value in metrics.items():
            extra = f"   raw {raw[name]:.6g}" if name in raw else ""
            print(f"  {name:<12} {value:12.6g} {units[name]}{extra}")

    for name, reason in run["failures"].items():
        print(f"  failed  {name}: {reason}")
    for name, reason in run["wrong"].items():
        print(f"  WRONG   {name}: {reason}")
    print(json.dumps({
        "correct": not run["wrong"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


def _layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    main()
