"""Run every workload, print each metric, and record the baseline and its run-to-run spread.

    python3 bench/baseline.py --out bench/baseline.json

For each workload: RUNS untraced runs on seeds 1..RUNS, then one traced
run on the default seed. Per end-to-end metric it records the median,
quartiles (statistics.quantiles, n=4), the spread (quartile distance over
the median) next to the metric's bound, and n; per-layer metrics are the
traced run's values. Runs execute one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, cwd=ROOT, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed its checks:\n{proc.stderr}")
    return result, lines


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, default=BENCH / "baseline.json")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    baseline = {
        "machine": f"{platform.processor() or platform.machine()}, {os.cpu_count()} CPUs, "
                   f"Python {platform.python_version()}, {platform.system()} {platform.release()}",
        "runs": RUNS,
        "seconds": declared["run_seconds"],
        "workloads": {},
    }
    for workload in [w["name"] for w in declared["workloads"]]:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        attempted = failed = 0
        for seed in range(1, RUNS + 1):
            result, _ = run_once(workload, seed, declared["run_seconds"], 0)
            attempted, failed = attempted + result["attempted"], failed + result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {RUNS} runs, failed_ratio {failed / attempted:g} ({failed} of {attempted} "
              "checked steps; seed 1 against the pinned digests)", flush=True)
        end_to_end = {}
        for name, samples in values.items():
            q1, _, q3 = statistics.quantiles(samples, n=4)
            median = statistics.median(samples)
            end_to_end[name] = {"median": median, "q1": q1, "q3": q3, "n": len(samples),
                                "spread": (q3 - q1) / median, "bound": bounds[name]}
            print(f"  {name} median {median:.6g} {units[name]} n={len(samples)} spread {(q3 - q1) / median:.3f} "
                  f"(bound {bounds[name]}, a third {bounds[name] / 3:.3f})", flush=True)
        traced, lines = run_once(workload, 1, declared["run_seconds"], 1)
        print("\n".join("  " + line for line in lines if line.startswith(("metric ", "prediction "))), flush=True)
        baseline["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    args.out.write_text(json.dumps(baseline, indent=2) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
