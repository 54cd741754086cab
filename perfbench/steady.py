#!/usr/bin/env python3
"""Run workloads repeatedly and print each metric's median and quartiles.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10]
        [--seconds S] [--trace 0|1]

Each run uses another seed.  For every metric the table shows the median,
the first and third quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median, which is what the bounds in BENCHMARK.json are set
against; it also shows the share of failed operations per run.  The
workload's own figures (the line before the result) follow, marked "fig".
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default=str(spec["run_seconds"]))
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    for workload in args.workloads.split(","):
        values = {}
        shares = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", args.trace]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            shares.append(result["failed"] / result["attempted"])
            if not result["correct"]:
                print(f"{workload} seed {seed}: NOT CORRECT", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            prefix = f"{workload} figures: "
            for line in lines:
                if line.startswith(prefix):
                    for name, m in json.loads(line[len(prefix):]).items():
                        values.setdefault("fig " + name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
        print(f"\n{workload}: failed share per run {sorted(set(shares))}")
        print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8}")
        for name, v in values.items():
            med = statistics.median(v)
            if len(v) >= 2:
                q1, _, q3 = statistics.quantiles(v, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.3f}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
