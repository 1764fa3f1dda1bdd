#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads forward inverse certify --seeds 10
    python3 bench/spread.py --workloads forward --seeds 5 --first-seed 100 --trace 1

For each workload and metric it prints the median and the spread: the
distance between the first and third quartile (statistics.quantiles with
n=4) as a share of the median.  End-to-end spreads are compared with the
bounds in BENCHMARK.json.  Runs go one at a time, so they do not compete
for the machine.  --out writes every value to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    report = next((json.loads(l[7:]) for l in lines if l.startswith("report ")), {})
    return json.loads(lines[-1]), report


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    everything = {}
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            result, report = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append({"seed": seed, "result": result, "report": report})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        everything[workload] = runs
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            median, share = spread(values)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and args.trace == 0:
                verdict = "ok" if share < bound / 3 else "within bound" if share < bound else "TOO WIDE"
            print(f"  {workload:8} {name:32} median {median:<12.6g} spread {share:7.2%}"
                  f"  {verdict}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(everything, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
