#!/usr/bin/env python3
"""Build and run the rahooi end-to-end benchmark (see README.md here).

    python3 e2ebench/run.py --workload ra-hcci --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the library from src/ and the
benchmark binary into $CARGO_TARGET_DIR (default .bench_build) with CMake,
runs one workload, and checks that the last line of the binary's output
names exactly the metrics BENCHMARK.json declares for the run's mode, each
with its declared unit. Exits 0 only when the build succeeded, every
correctness check passed and the metric set is complete.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build; compiler output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(max(1, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"[e2ebench] build step failed: {err}", file=sys.stderr)
            return False
        if proc.returncode != 0:
            print(f"[e2ebench] build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def expected_metrics(trace):
    """{name: unit} that BENCHMARK.json declares for this mode."""
    path = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Problems with the result line, as a list of strings."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last output line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
        return problems
    want = expected_metrics(trace)
    got = result["metrics"]
    for name, unit in want.items():
        if name not in got:
            problems.append(f"metric {name} missing")
        elif got[name].get("unit") != unit:
            problems.append(f"metric {name} has unit {got[name].get('unit')}"
                            f", BENCHMARK.json says {unit}")
    for name in set(got) - set(want):
        problems.append(f"metric {name} is not in BENCHMARK.json")
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"{result['failed']} of {result['attempted']} "
                        "operations failed their checks")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ra-hcci", "sthosvd-synth"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["tiny", "full"], default="full")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    if not build(build_dir):
        return 1
    binary = os.path.join(build_dir, "rahooi_e2ebench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"[e2ebench] {args.workload} exceeded {RUN_TIMEOUT_S}s",
              file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"[e2ebench] benchmark exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    problems = check_result(lines[-1], args.trace == 1)
    if problems:
        sys.stderr.write(proc.stdout)
        for p in problems:
            print(f"[e2ebench] {p}", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
