#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark at tiny sizes (about two minutes).

    python3 e2ebench/smoke_test.py

Run from the repository root. For each workload it runs run.py at
--size tiny, untraced and traced, and asserts that:
  * the run passes its correctness checks and exits 0;
  * every metric BENCHMARK.json declares for the mode is emitted with its
    unit, and nothing else;
  * the run record carries the machine and input fields and a sample count
    for every metric;
  * the traced run's phase self-times account for the solve's wall time
    within 2%.
It also asserts that one seed always gives the same input and that another
seed gives a different one. Exits nonzero on the first failed assertion.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ra-hcci", "sthosvd-synth"]
RECORD_KEYS = ["workload", "seed", "nproc", "l3_bytes", "build_type",
               "RAHOOI_NATIVE_ARCH", "failed_frac", "tensor_bytes",
               "tensor_to_l3_ratio", "samples"]


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "2", "--trace",
           str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    assert proc.returncode == 0, f"{cmd} exited with {proc.returncode}"
    lines = proc.stdout.strip().splitlines()
    record = next(json.loads(l[len("run_record "):]) for l in lines
                  if l.startswith("run_record "))
    return record, json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    for workload in WORKLOADS:
        for trace in (0, 1):
            record, result = run(workload, 1, trace)
            want = spec["per_layer" if trace else "end_to_end"]
            got = result["metrics"]
            assert set(got) == {m["name"] for m in want}, (workload, trace)
            for m in want:
                assert got[m["name"]]["unit"] == m["unit"], m["name"]
                assert isinstance(got[m["name"]]["value"], (int, float))
                assert m["name"] in record["samples"], m["name"]
            for key in RECORD_KEYS:
                assert key in record, (workload, trace, key)
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            if trace:
                gap = record["phase_coverage_worst_gap"]
                assert gap <= 0.02, f"{workload}: coverage gap {gap}"
            print(f"ok  {workload:14s} trace={trace}  "
                  f"{len(got)} metrics, {result['attempted']} attempted")

    same = [run("ra-hcci", 7, 0)[0]["input_fingerprint_rank0"]
            for _ in range(2)]
    other = run("ra-hcci", 8, 0)[0]["input_fingerprint_rank0"]
    assert same[0] == same[1], "one seed gave two different inputs"
    assert other != same[0], "two seeds gave the same input"
    print("ok  seed 7 twice gives one input; seed 8 gives another")
    return 0


if __name__ == "__main__":
    sys.exit(main())
