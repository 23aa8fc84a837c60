#!/usr/bin/env python3
"""Self-check of the benchmark on small inputs.

    python3 perfbench/check.py

Runs every workload named in BENCHMARK.json through run.py with a 20K-route
RIB, 2 rounds and 2 seconds, once untraced and once traced, and asserts that
each result line is well formed, reports no failures (fail_frac == 0), and
carries every end-to-end (untraced) or per-layer (traced) metric of
BENCHMARK.json with its unit. Exits non-zero on the first problem.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "2", "--trace", str(trace),
           "--rib-size", "20000", "--rounds", "2"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        sys.exit(f"check: {workload} trace={trace} exited {done.returncode}\n"
                 f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                sys.exit(f"check: {workload}: unexpected keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0:
                sys.exit(f"check: {workload} trace={trace}: fail_frac = "
                         f"{result['failed']}/{result['attempted']}")
            if result["attempted"] < 1:
                sys.exit(f"check: {workload}: nothing attempted")
            metrics = result["metrics"]
            expected = {m["name"]: m["unit"] for m in spec[section]}
            if set(metrics) != set(expected):
                sys.exit(f"check: {workload} trace={trace}: metrics differ: "
                         f"missing {sorted(set(expected) - set(metrics))}, "
                         f"extra {sorted(set(metrics) - set(expected))}")
            for name, unit in expected.items():
                if metrics[name]["unit"] != unit:
                    sys.exit(f"check: {workload}: {name} unit "
                             f"{metrics[name]['unit']} != {unit}")
                if section == "end_to_end" and not metrics[name]["value"] > 0:
                    sys.exit(f"check: {workload}: {name} is not positive")
            print(f"check: {workload} trace={trace}: ok "
                  f"({result['attempted']} operations, {len(metrics)} metrics)")
    print("check: all workloads ok")


if __name__ == "__main__":
    main()
