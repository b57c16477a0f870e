#!/usr/bin/env python3
"""The bench_suite_smoke test: every workload of cumulon_bench (`--list`),
including those BENCHMARK.json leaves out, once with --smoke (tiny shapes,
one set-up, 1 s phases, 3 s of svc), untraced and traced. Each run must be
correct with no failed operation; it must emit
exactly the metrics BENCHMARK.json names for its mode, with their units
(nothing missing, nothing unnamed); and each Chrome trace must parse with
`python3 -m json.tool`. The whole test must take under 30 s.

    python3 smoke.py --bench PATH/cumulon_bench --spec BENCHMARK.json \
        --work-dir DIR
"""

import argparse
import json
import os
import subprocess
import sys
import time

import run

BUDGET_S = 30.0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--bench", required=True)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    os.makedirs(args.work_dir, exist_ok=True)

    problems = []
    start = time.monotonic()
    workloads = subprocess.run([args.bench, "--list"], check=True,
                               capture_output=True, text=True).stdout.split()
    unknown = {w["name"] for w in spec["workloads"]} - set(workloads)
    if unknown:
        problems.append(f"BENCHMARK.json names unknown workloads "
                        f"{sorted(unknown)}")
    for workload in workloads:
        for traced in (False, True):
            mode = "per_layer" if traced else "end_to_end"
            label = f"{workload} {mode}"
            result_path = os.path.join(args.work_dir, "result.json")
            trace_path = os.path.join(args.work_dir, f"trace-{workload}.json")
            cmd = [args.bench, "--workload", workload, "--seed", "1",
                   "--smoke", "--json", result_path]
            if traced:
                cmd += ["--trace", trace_path]
            proc = subprocess.run(cmd, cwd=args.work_dir,
                                  capture_output=True, text=True, timeout=60)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n"
                                f"{proc.stdout}{proc.stderr}")
                continue
            with open(result_path) as f:
                result = json.load(f)
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: incorrect: {result['problems']}")
            if result["attempted"] < 1:
                problems.append(f"{label}: no operation attempted")
            try:
                run.check_names(spec, result, traced)
            except run.BenchError as e:
                problems.append(f"{label}: {e}")
            if traced:
                check = subprocess.run(
                    [sys.executable, "-m", "json.tool", trace_path],
                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                    text=True)
                if check.returncode != 0:
                    problems.append(f"{label}: trace is not valid JSON: "
                                    f"{check.stderr.strip()}")
            print(f"{label}: ok, {result['attempted']} operations", flush=True)
    elapsed = time.monotonic() - start
    if elapsed > BUDGET_S:
        problems.append(f"smoke took {elapsed:.1f} s, over {BUDGET_S:.0f} s")
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"smoke: {elapsed:.1f} s, {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
