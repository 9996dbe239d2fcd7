#!/usr/bin/env python3
"""End-to-end benchmark driver for the HARNESS II binding stack and DVM.

Builds the library and the benchmark binary from the sources in this
checkout (into .bench_build/perfbench), then runs one workload:

    python3 perfbench/run.py --workload xdr-small --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ledger
(and writes the traced spans to .bench_build/spans/). The last line of
stdout is one JSON object {correct, attempted, failed, metrics}.

    python3 perfbench/run.py --workload all --seed 1 --seconds 5

runs every workload, both modes, and prints every metric by name and unit;
its last line is the same kind of JSON object, with metrics keyed
"<workload>/<metric>".
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["xdr-small", "soap-bulk", "xdr-batch", "dvm-state"]
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
BINARY = os.path.join(BUILD_DIR, "h2_e2e")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then builds incrementally; logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "h2_e2e", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def run_one(workload, seed, seconds, trace):
    """Runs the binary once; returns (exit code, stdout lines, result)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(SPANS_DIR, f"{workload}-seed{seed}.jsonl")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    result = None
    if done.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()

    if args.workload != "all":
        code, lines, result = run_one(args.workload, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        if result is None:
            fail(f"{args.workload}: no result (exit code {code})")
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines, result = run_one(workload, args.seed, args.seconds, trace)
            if result is None:
                print("\n".join(lines), flush=True)
                fail(f"{workload}: no result (exit code {code})")
            print(f"## {workload} --trace {trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"## {workload:<10} {name:<34} {metric['value']:>16.6f} "
                      f"{metric['unit']}")
                combined["metrics"][f"{workload}/{name}"] = metric
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
    print(json.dumps(combined), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
