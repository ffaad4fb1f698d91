#!/usr/bin/env python3
"""End-to-end benchmark of the OPC UA study pipeline.

    python3 benchmark/run.py --workload paper_scan|followup_batch|service_mixed \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds benchmark/ (and through it the
library under src/) into .bench_build/, runs the self-tests, makes sure the
workload's key corpus exists (built once, outside any timed run), then runs
the workload in its own process from a fresh work directory. The last line
of stdout is the result JSON; see benchmark/README.md for the metrics.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("paper_scan", "followup_batch", "service_mixed")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure once, then an incremental build of the two binaries."""
    cmake_dir = os.path.join(BUILD, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"]
                       + generator, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", cmake_dir, "-j", "4", "--target", "pipeline_bench",
                    "pipeline_bench_selftest"], check=True, stdout=sys.stderr)
    subprocess.run([os.path.join(cmake_dir, "pipeline_bench_selftest")], check=True,
                   stdout=sys.stderr)
    return os.path.join(cmake_dir, "pipeline_bench")


def ensure_corpus(binary, workload, seed):
    """Key corpora are inputs, not work: build them untimed, once."""
    corpus_dir = os.path.join(BUILD, "keys")
    os.makedirs(corpus_dir, exist_ok=True)
    name = f"paper_scan-{seed}" if workload == "paper_scan" else workload
    done = os.path.join(corpus_dir, name + ".keys.done")
    if os.path.exists(done):
        return corpus_dir
    for stale in (name + ".keys", name + ".keys.tmp"):
        if os.path.exists(os.path.join(corpus_dir, stale)):
            os.remove(os.path.join(corpus_dir, stale))
    start = time.monotonic()
    subprocess.run([binary, "corpus", "--workload", workload, "--seed", str(seed),
                    "--corpus-dir", corpus_dir], check=True, stdout=sys.stderr, timeout=600)
    open(done, "w").close()
    print(f"key corpus {name}: built in {time.monotonic() - start:.1f} s (not part of any run)")
    return corpus_dir


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    binary = build()
    corpus_dir = ensure_corpus(binary, args.workload, args.seed)
    work_dir = os.path.join(BUILD, "work", f"{args.workload}-{os.getpid()}")
    trace_dir = os.path.join(BUILD, "traces")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    os.makedirs(trace_dir, exist_ok=True)
    try:
        proc = subprocess.run(
            [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--work-dir", work_dir, "--corpus-dir", corpus_dir, "--trace-dir", trace_dir],
            stdout=subprocess.PIPE, text=True, timeout=170)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"{args.workload}: no result (exit code {proc.returncode})")
        return 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"{args.workload}: malformed result keys {sorted(result)}")
        return 1
    if set(result["metrics"]) != expected_metrics(args.trace):
        log(f"{args.workload}: metrics differ from BENCHMARK.json")
        return 1
    print(json.dumps(result), flush=True)
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"benchmark step failed: {e}")
        sys.exit(1)
