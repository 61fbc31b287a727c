#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs the benchmark command once per seed on each workload of
BENCHMARK.json (tracing off), then prints, for every end-to-end metric,
the median of the runs and the quartile spread (Q3 - Q1) / median next
to the metric's bound, plus the largest host CPU steal share the runs
saw. A run whose steal share exceeds 5% is marked host-slowed. It exits
with 1 when a spread exceeds its bound. Run it from the root of a
checkout:

    python3 perfbench/steady.py --runs 10 --first-seed 100
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

# Above this share of host CPU time stolen, a run is host-slowed.
HOST_SLOWED_STEAL = 0.05


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    began = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - began
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    info = {}
    for line in proc.stderr.splitlines():
        if line.startswith("perfbench: {"):
            info = json.loads(line[len("perfbench: "):])
    info["wall_s"] = wall
    return result, info


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {}
    for workload in names:
        runs = []
        for k in range(opts.runs):
            seed = opts.first_seed + k
            result, info = run_once(bench["command"], workload, seed, bench["run_seconds"])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: {result} {info}")
            values = {m: v["value"] for m, v in result["metrics"].items()}
            steal = info.get("steal_share") or 0.0
            runs.append({"metrics": values, "steal_share": steal})
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{m}={v:.6g}" for m, v in values.items())
                  + f" steal={steal:.4f} samples={info.get('samples')}"
                  + f" wall={info['wall_s']:.1f}s"
                  + (" HOST-SLOWED" if steal > HOST_SLOWED_STEAL else ""),
                  flush=True)
        record[workload] = runs

    print("\n| workload | metric | median | quartile spread | bound | steal (max) | host-slowed runs |")
    print("|---|---|---|---|---|---|---|")
    within = True
    for workload, runs in record.items():
        steal = max(r["steal_share"] for r in runs)
        slowed = sum(r["steal_share"] > HOST_SLOWED_STEAL for r in runs)
        for metric, bound in bounds.items():
            values = [r["metrics"][metric] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            flag = "" if spread < bound / 3 else " (over bound/3)"
            within = within and spread <= bound
            print(f"| {workload} | {metric} | {statistics.median(values):.6g} | "
                  f"{spread:.4f}{flag} | {bound} | {steal:.4f} | {slowed} |")
    sys.exit(0 if within else 1)


if __name__ == "__main__":
    main()
