#!/usr/bin/env python3
"""Bench-regression guard: compare an emitted BENCH_*.json against a
checked-in baseline.

Baselines (bench/baselines/*.json) declare per-metric bounds:

    {
      "metrics": {
        "keygen_2048.keys_per_sec": {"min": 2.7},
        "modexp_2048.ops_per_sec": {"min": 38},
        "batch_gcd.scaling_exponent": {"max": 1.65}
      }
    }

Dotted paths index into the result JSON; numeric components index arrays
("batch_gcd.points.0.seconds"). `min`/`max` bounds are softened by --slack
(CI machines are noisy; a real regression blows through the slack too);
`equals` is exact. Exits 1 listing every violated bound.

Usage:
    check_bench.py --baseline bench/baselines/crypto.json --result BENCH_crypto.json [--slack 0.15]
"""

import argparse
import json
import sys


def lookup(data, path):
    node = data
    for part in path.split("."):
        if isinstance(node, list):
            node = node[int(part)]
        elif isinstance(node, dict):
            node = node[part]
        else:
            raise KeyError(path)
    return node


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--slack", type=float, default=0.15,
                        help="fractional tolerance applied to min/max bounds (default 0.15)")
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.result) as f:
        result = json.load(f)

    failures = []
    checked = 0
    for path, bounds in baseline["metrics"].items():
        try:
            value = lookup(result, path)
        except (KeyError, IndexError, ValueError):
            failures.append(f"{path}: missing from result")
            continue
        checked += 1
        if "equals" in bounds and value != bounds["equals"]:
            failures.append(f"{path}: expected {bounds['equals']!r}, got {value!r}")
        if "min" in bounds:
            floor = bounds["min"] * (1.0 - args.slack)
            if not (isinstance(value, (int, float)) and value >= floor):
                failures.append(
                    f"{path}: {value!r} below baseline min {bounds['min']}"
                    f" (floor {floor:.4g} after {args.slack:.0%} slack)")
        if "max" in bounds:
            ceil = bounds["max"] * (1.0 + args.slack)
            if not (isinstance(value, (int, float)) and value <= ceil):
                failures.append(
                    f"{path}: {value!r} above baseline max {bounds['max']}"
                    f" (ceiling {ceil:.4g} after {args.slack:.0%} slack)")

    label = f"{args.result} vs {args.baseline}"
    if failures:
        print(f"[check_bench] REGRESSION {label}:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"[check_bench] ok {label}: {checked} metric(s) within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
