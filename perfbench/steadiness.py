#!/usr/bin/env python3
"""Steadiness check for the SCPM benchmark.

Runs every chosen workload once per seed, in separate sets of runs (by
default two sets of ten seeds each: 1-10 and 11-20), and prints for each
workload and end-to-end metric the median, the quartiles, the spread
(Q3 - Q1) / median of each set, and the shift of the second set's median
against the first's, beside the metric's bound from BENCHMARK.json. It
says "NOT steady" when any spread or any shift, up or down, exceeds the
metric's bound, setup_s included, when a run is not correct, or when
the share of failed operations differs between sets. Run from the root
of a checkout:

    python3 perfbench/steadiness.py                       # all, 2 x 10
    python3 perfbench/steadiness.py --workloads simexp --runs 5 --sets 1

Raw results go to .bench_out/steadiness-<unix time>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    proc = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d)" %
                         (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10,
                        help="runs (seeds) per set")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=config["run_seconds"])
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    for s in range(args.sets):
        for i in range(args.runs):
            seed = args.first_seed + s * args.runs + i
            for w in workloads:
                started = time.time()
                r = run_once(w, seed, args.seconds)
                results[w][s].append(r)
                print("set %d seed %3d %-10s %5.1f s  %s" % (
                    s + 1, seed, w, time.time() - started,
                    " ".join("%s=%.4g" % (k, v["value"])
                             for k, v in r["metrics"].items())),
                      file=sys.stderr, flush=True)

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    raw = os.path.join(ROOT, ".bench_out",
                       "steadiness-%d.json" % int(time.time()))
    with open(raw, "w") as f:
        json.dump(results, f)

    ok = True
    print("%-10s %-13s %3s %10s %10s %10s %7s %7s %6s" % (
        "workload", "metric", "set", "median", "q1", "q3", "spread",
        "shift", "bound"))
    for w in workloads:
        shares = set()
        for runs in results[w]:
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            shares.add(failed / attempted)
            ok &= all(r["correct"] for r in runs)
        for metric, bound in bounds.items():
            first_median = None
            for s, runs in enumerate(results[w]):
                values = [r["metrics"][metric]["value"] for r in runs]
                median, q1, q3, rel = spread(values)
                if first_median is None:
                    first_median = median
                shift = median / first_median - 1
                flag = ""
                if rel > bound:
                    flag, ok = " spread>bound", False
                if abs(shift) > bound:
                    flag, ok = flag + " shift>bound", False
                print("%-10s %-13s %3d %10.4f %10.4f %10.4f %6.1f%% %6.1f%%"
                      " %5.0f%%%s" % (w, metric, s + 1, median, q1, q3,
                                      100 * rel, 100 * shift, 100 * bound,
                                      flag))
        if len(shares) > 1:
            print("%-10s failed share differs between sets: %s" % (w, shares))
            ok = False
    print("raw results: %s" % raw)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
