#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

    python3 perfbench/steady.py --workload <name> [--runs 10] [--seconds 30]

Runs perfbench/run.py untraced once per seed (seeds 1, 2, ...) and
prints, for every metric of the result line, the median of the runs and
the spread: the distance between the first and third quartiles (Python's
statistics.quantiles(values, n=4)) as a share of the median, beside the
metric's bound in BENCHMARK.json and whether the spread is under a third
of it. Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=30)
    args = p.parse_args()

    with open("BENCHMARK.json") as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}

    values = {}
    for i in range(args.runs):
        seed = 1 + i
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True,
        )
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: failed={result['failed']}/{result['attempted']} " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)

    worst = 0.0
    print(f"\n{'metric':<36} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "ok" if spread < bound / 3 else "WIDE"
            worst = max(worst, spread / bound)
        print(f"{name:<36} {med:>14.6g} {spread:>8.4f} {bound if bound is not None else '':>6} {verdict}")
    print(f"\nworst spread/bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
