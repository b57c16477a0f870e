#!/usr/bin/env python3
"""Runs the whole benchmark, or compares two result files.

    python3 bench/suite/run_suite.py --runs N [--trace] [--out FILE]
    python3 bench/suite/run_suite.py --compare A.json B.json

--runs runs every workload of BENCHMARK.json N times (seeds 1..N), each in
its own process, and writes each metric's median, quartiles and sample
count (default FILE: results.json). --trace runs the per-layer mode
instead. Run it from the repository root, like run.py.

--compare applies each end-to-end metric's bound from BENCHMARK.json to the
medians of A (the parent) and B (the change), one row per workload and
metric. Where the quartile spread of A or of B is wider than the bound, the
medians cannot decide: the row is a regression when every run of B reads
worse than every run of A, better when every run of B reads better, and
"unresolved" otherwise. It exits 1 on any regression and on any rise in the
failed-operation fraction, else 3 if any row is unresolved, else 0. A file
with a "sets" list (BASELINE.json) stands for its first set.
"""

import argparse
import json
import statistics
import sys

import run


def summarize(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "n": len(values), "values": values}


def run_all(runs, trace):
    spec = run.load_spec()
    binary = run.build()
    seconds = spec["run_seconds"]
    results = {"mode": "per_layer" if trace else "end_to_end", "runs": runs,
               "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values, units = {}, {}
        totals = {"attempted": 0, "failed": 0, "correct": True}
        for seed in range(1, runs + 1):
            record = run.run_workload(binary, workload, seed, seconds, trace,
                                      quiet=True)
            run.check_names(spec, record, trace)
            results["host"] = record["host"]
            totals["attempted"] += record["attempted"]
            totals["failed"] += record["failed"]
            totals["correct"] &= record["correct"]
            for name, m in record["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: "
                  f"{'correct' if record['correct'] else 'INCORRECT'}",
                  flush=True)
        results["workloads"][workload] = dict(totals, metrics={
            name: dict(summarize(v), unit=units[name])
            for name, v in sorted(values.items())})
    return results


def first_set(path):
    with open(path) as f:
        data = json.load(f)
    return data["sets"][0] if "sets" in data else data


def spread(m):
    return (m["q3"] - m["q1"]) / m["median"]


def compare(path_a, path_b):
    spec = run.load_spec()
    a, b = first_set(path_a), first_set(path_b)
    bad, unresolved = [], []
    print(f"{'workload':12s} {'metric':16s} {'A median':>12s} "
          f"{'B median':>12s} {'change':>8s} {'bound':>6s} verdict")
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            print(f"{workload:12s} missing from {path_b}")
            bad.append(workload)
            continue
        fail_a = wa["failed"] / max(wa["attempted"], 1)
        fail_b = wb["failed"] / max(wb["attempted"], 1)
        if fail_b > fail_a:
            print(f"{workload:12s} failed fraction rose {fail_a:.4f} -> "
                  f"{fail_b:.4f}")
            bad.append(workload)
        for metric in spec["end_to_end"]:
            row = f"{workload} {metric['name']}"
            ma = wa["metrics"].get(metric["name"])
            mb = wb["metrics"].get(metric["name"])
            if ma is None or mb is None:
                print(f"{workload:12s} {metric['name']:16s} missing")
                bad.append(row)
                continue
            sign = 1.0 if metric["better"] == "lower" else -1.0
            change = sign * (mb["median"] - ma["median"]) / ma["median"]
            # Signed so that larger is worse, like change.
            worse_a = [sign * v for v in ma["values"]]
            worse_b = [sign * v for v in mb["values"]]
            widest = max(spread(ma), spread(mb))
            if widest > metric["bound"]:
                if min(worse_b) > max(worse_a):
                    verdict = "REGRESSION (every B run worse)"
                    bad.append(row)
                elif max(worse_b) < min(worse_a):
                    verdict = "better (every B run better)"
                else:
                    verdict = f"unresolved (spread {widest:.3f})"
                    unresolved.append(row)
            elif change > metric["bound"]:
                verdict = "REGRESSION"
                bad.append(row)
            elif change < -metric["bound"]:
                verdict = "better"
            else:
                verdict = "within bound"
            print(f"{workload:12s} {metric['name']:16s} {ma['median']:12.5g} "
                  f"{mb['median']:12.5g} {change:+8.3f} {metric['bound']:6.2f} "
                  f"{verdict}")
    print(f"{len(bad)} regression(s): {', '.join(bad) or 'none'}; "
          f"{len(unresolved)} unresolved: {', '.join(unresolved) or 'none'}")
    if bad:
        return 1
    return 3 if unresolved else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default="results.json")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    try:
        if args.compare:
            return compare(*args.compare)
        if not args.runs or args.runs < 1:
            parser.error("give --runs N or --compare A B")
        results = run_all(args.runs, args.trace)
    except run.BenchError as e:
        print(f"run_suite.py: {e}", file=sys.stderr)
        return 2
    with open(args.out, "w") as f:
        json.dump(results, f, indent=1)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
