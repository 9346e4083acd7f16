#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

For every metric this prints the median over the runs, the first and
third quartile (statistics.quantiles, n=4), and the spread: the distance
between the quartiles as a share of the median. End-to-end metrics also
show their bound from BENCHMARK.json and a third of it, the target a
steady benchmark stays under.

Run from the repository root:

    python3 e2ebench/spread.py --workload atpg_random --seeds 1-10
    python3 e2ebench/spread.py --workload fleet_defective --seeds 1-5 --trace 1

Each run's result line is appended to --out (JSONL) when given.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--out", help="append every result line to this JSONL file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in args.seeds:
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}")
        result = json.loads(lines[-1])
        runs.append(result)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed, "result": result}) + "\n")
        print(f"seed {seed}: attempted {result['attempted']}, failed {result['failed']}", file=sys.stderr)

    print(f"{args.workload}: {len(runs)} runs of {seconds} s, trace {args.trace}")
    print(f"{'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound/3':>8}")
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        target = f"{bounds[name] / 3:8.4f}" if name in bounds else ""
        flag = " <-- over" if name in bounds and spread > bounds[name] / 3 else ""
        print(f"{name:<28} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {target}{flag}")


if __name__ == "__main__":
    main()
