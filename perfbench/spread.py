#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
spread: the distance between the first and third quartile of its values,
as a share of their median, next to the bound BENCHMARK.json fixes.

Run from the repository root after building the benchmark:

    python3 perfbench/spread.py --workload stencil --seeds 1-10

A spread under a third of its bound leaves room for machine noise.
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
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {name: [] for name in bounds}
    failures = 0
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failures += result["failed"] + (0 if result["correct"] else 1)
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={values[n][-1]:.6g}" for n in bounds), flush=True)

    print(f"{args.workload}: {len(args.seeds)} runs, {failures} failure(s)")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "ok" if spread < bounds[name] / 3 else "WIDE"
        print(f"  {name:<14} median {med:.6g}  spread {spread:.4f}"
              f"  bound {bounds[name]}  {flag}")


if __name__ == "__main__":
    main()
