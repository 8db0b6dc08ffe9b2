#!/usr/bin/env python3
"""Steadiness check: run each workload N times and print each metric's spread.

Usage (from the repository root):

    python3 perfbench/steady.py --runs 10 [--workloads kv-zipf,ps-bottleneck]
        [--seconds S] [--first-seed 1]

Run i uses seed first-seed + i. For every metric it prints the median, the
first and third quartiles (statistics.quantiles(values, n=4)), and the
spread (q3 - q1) / median beside the metric's regression bound from
BENCHMARK.json. A spread above a third of its bound is marked with "!"
(setup_s is exempt: only its median is compared between runs). Exits 1 if
any run fails or reports an incorrect result.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for i in range(args.runs):
            res = run_once(workload, args.first_seed + i, args.seconds)
            if res is None or not res["correct"] or res["failed"]:
                print(f"{workload}: run {i} failed: {res}", file=sys.stderr)
                ok = False
                continue
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{workload}: {args.runs} runs of {args.seconds} s")
        print(f"  {'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in sorted(values):
            vs = values[name]
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = " !"
            shown = "" if bound is None else f"{bound:.2f}"
            print(f"  {name:<30} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {shown:>6}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
