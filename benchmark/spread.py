#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 benchmark/spread.py --workload W [--workload W ...] [--runs 10] [--first-seed 1]

Runs the benchmark once per seed (seeds first-seed .. first-seed+runs-1),
then prints, per workload and metric, the median, the interquartile
distance as a share of the median (statistics.quantiles, n=4) and that
metric's bound from BENCHMARK.json. Raw results go to
.bench_build/spread-<workload>.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workload:
        log_path = os.path.join(ROOT, ".bench_build", f"spread-{workload}.jsonl")
        values = {name: [] for name in bounds}
        with open(log_path, "w") as log:
            for seed in range(args.first_seed, args.first_seed + args.runs):
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                    cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
                if proc.returncode != 0:
                    print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                    return 1
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                log.write(json.dumps({"seed": seed, **result}) + "\n")
                for name, metric in result["metrics"].items():
                    values[name].append(metric["value"])
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            print(f"{workload:15s} {name:18s} median {statistics.median(vals):12.6g}  "
                  f"spread {spread:6.3f}  bound {bounds[name]:.2f}"
                  f"{'  OVER BOUND/3' if spread > bounds[name] / 3 else ''}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
