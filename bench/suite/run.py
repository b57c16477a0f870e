#!/usr/bin/env python3
"""Runs one workload of the Cumulon end-to-end benchmark.

    python3 bench/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is any workload of cumulon_bench (`--list`), including those
BENCHMARK.json leaves out. Run it from the repository root. It configures
the root CMake project with bench/suite attached (attach.cmake) into
$CARGO_TARGET_DIR, or .bench_build, on first use, and builds the
cumulon_bench target; runs cumulon_bench with its scratch files under
.bench_run; and prints the benchmark's report followed, as the last line,
by one JSON object
with "correct", "attempted", "failed" and "metrics". Without --trace 1 the
metrics are BENCHMARK.json's end_to_end ones; with it, the per_layer ones,
and the Chrome trace is left in .bench_run/trace-NAME.json.
"""

import argparse
import json
import os
import subprocess
import sys

SUITE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE))
SPEC = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_spec():
    if not os.path.isfile(SPEC):
        raise BenchError(f"{SPEC} is missing")
    with open(SPEC) as f:
        return json.load(f)


def build():
    """Configures (once) the root project with bench/suite attached, and
    builds cumulon_bench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"no cumulon sources under {ROOT}/src")
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        # Build chatter goes to stderr so stdout ends with the result line.
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", ROOT, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release",
                            "-DCMAKE_PROJECT_cumulon_INCLUDE="
                            + os.path.join(SUITE, "attach.cmake")],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", build_dir,
                        "-j", str(min(4, os.cpu_count() or 1)),
                        "--target", "cumulon_bench"],
                       check=True, stdout=sys.stderr)
    except subprocess.CalledProcessError as e:
        raise BenchError(f"build failed: {e}") from e
    return os.path.join(build_dir, "cumulon_bench")


def run_workload(binary, workload, seed, seconds, trace, quiet=False):
    """Runs one workload in its own process; returns cumulon_bench's record
    (metrics with value, unit and sample count, plus the host)."""
    run_dir = os.path.abspath(".bench_run")
    os.makedirs(run_dir, exist_ok=True)
    result_path = os.path.join(run_dir, f"result-{os.getpid()}.json")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--json", result_path]
    if trace:
        cmd += ["--trace", os.path.join(run_dir, f"trace-{workload}.json")]
    sys.stdout.flush()
    try:
        # The daemon's unix socket goes into the working directory.
        proc = subprocess.run(
            cmd, cwd=run_dir, timeout=RUN_TIMEOUT_S,
            stdout=subprocess.DEVNULL if quiet else None)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload} did not finish in {RUN_TIMEOUT_S} s") from e
    if proc.returncode != 0:
        raise BenchError(f"cumulon_bench exited with {proc.returncode}")
    with open(result_path) as f:
        record = json.load(f)
    os.remove(result_path)
    return record


def check_names(spec, record, trace):
    """Raises unless the record emits exactly the metrics BENCHMARK.json
    names for the mode, with the same units."""
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in record["metrics"].items()}
    if emitted != expected:
        raise BenchError(
            "metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(expected) - set(emitted))}, "
            f"unnamed {sorted(set(emitted) - set(expected))}, unit changes "
            f"{sorted(n for n in expected if emitted.get(n, expected[n]) != expected[n])}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        spec = load_spec()
        record = run_workload(build(), args.workload, args.seed,
                              args.seconds, args.trace)
        check_names(spec, record, args.trace)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in sorted(record["metrics"].items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
