#!/usr/bin/env python3
"""Run every workload on ten seeds and record the medians and spreads.

    python3 perfbench/baseline.py --out perfbench/BASELINE.json

Each run is `perfbench/run.py` in its own process, one after another, for
BENCHMARK.json's run_seconds: seeds 1 to 10 untraced, then seed 1000 traced.
For every end-to-end metric the table gives the median over the seeds and
the spread, the distance between the first and third quartiles as a share
of the median; a spread of a third of the metric's bound or more is flagged
and makes the exit code 1. `host_wall_s`, the median pass time in host
seconds that each run prints, is recorded beside `wall_s` to show what the
scaling to reference seconds does. Per-layer metrics are those of the one
traced run.
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

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
TRACED_SEED = 1000
HOST_WALL = "wall_s in host seconds"  # the table line run.py prints it on


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{' '.join(command)} reported incorrect output:\n{done.stderr}")
    return result, done.stdout


def host_wall_s(stdout: str) -> float:
    line = next(line for line in stdout.splitlines() if line.startswith(HOST_WALL))
    return float(line[len(HOST_WALL) :].split()[0])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(median), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the table as JSON here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table = {}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, spec["run_seconds"], 0) for seed in SEEDS]
        traced, _ = run_once(workload, TRACED_SEED, spec["run_seconds"], 1)
        entry = {"end_to_end": {}, "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}}
        for name, bound in bounds.items():
            entry["end_to_end"][name] = row = spread([r["metrics"][name]["value"] for r, _ in runs])
            flagged = row["spread"] >= bound / 3
            steady &= not flagged
            print(f"{workload:18s} {name:14s} median {row['median']:12.6g}  spread {row['spread']:7.2%}"
                  f"  bound {bound:.0%}" + ("  <-- spread too wide" if flagged else ""))
        entry["host_wall_s"] = row = spread([host_wall_s(stdout) for _, stdout in runs])
        print(f"{workload:18s} {'host_wall_s':14s} median {row['median']:12.6g}  spread {row['spread']:7.2%}")
        table[workload] = entry
    if args.out:
        host = {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()}
        record = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "traced_seed": TRACED_SEED}
        record |= {"host": host, "workloads": table}
        Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
