#!/usr/bin/env python3
"""SCPM benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dblp --seed 1 --seconds 5 --trace 0

It builds perfbench/scpmbench (Release) into .bench_build/, generates the
workload's inputs for the seed into .bench_cache/ (once per seed, outside
any timing), then runs the workload in one process and passes that
process's output through: the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. --trace 1
gives the per-layer metrics instead of the end-to-end ones and writes a
span file into .bench_out/. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dblp", "citeseer20", "scorp", "simexp")


def build():
    build_dir = os.path.join(ROOT, ".bench_build")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "scpmbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "scpmbench")


def prepare(binary, workload, seed):
    """Inputs are kept until the program that generated them is rebuilt."""
    cache = os.path.join(ROOT, ".bench_cache")
    inputs = os.path.join(cache, "%s-seed%d" % (workload, seed))
    stamp = str(os.stat(binary).st_mtime_ns)
    try:
        with open(os.path.join(inputs, "done")) as f:
            if f.read() == stamp:
                return inputs
    except OSError:
        pass
    staging = "%s.tmp%d" % (inputs, os.getpid())
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    subprocess.run([binary, "prepare", workload, str(seed), staging],
                   stdout=sys.stderr, check=True)
    with open(os.path.join(staging, "done"), "w") as f:
        f.write(stamp)
    shutil.rmtree(inputs, ignore_errors=True)
    os.rename(staging, inputs)
    return inputs


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", default="",
                        help="falsify one output value before the checks, "
                             "to show the check that guards it fail")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: no SCPM sources (CMakeLists.txt, src/) next to "
              "perfbench/; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    try:
        binary = build()
        inputs = prepare(binary, args.workload, args.seed)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build or input preparation failed: %s" % e,
              file=sys.stderr)
        return 2
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)

    extra = [args.corrupt] if args.corrupt else []
    sys.stdout.flush()
    command = [binary, "run", args.workload, str(args.seed), inputs, out_dir,
               repr(args.seconds), str(args.trace)] + extra
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
