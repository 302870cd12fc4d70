#!/usr/bin/env python3
"""Build and run the DMDC simulator benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload kernel-busy --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --selftest            # the benchmark's own tests
    python3 perfbench/run.py --write-reference     # re-pin perfbench/reference.tsv

The first call configures and builds the simulator library and the
perfbench binary under .bench_build/perfbench (later calls rebuild
only what changed). Build output goes to stderr; the report goes to
stdout, and its last line is the JSON result object. The exit status is
the binary's: 0 success, 1 a wrong simulated result, 2 usage or set-up
errors, 3 a failed build.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
REFERENCE = os.path.join(HERE, "reference.tsv")
WORKLOADS = ["kernel-busy", "kernel-stall", "campaign-cold", "campaign-warm"]
RUN_TIMEOUT_S = 170


def build(targets):
    """Configure (once) and build @targets; exit 3 when that fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: simulator sources (src/) not found next to "
              "perfbench/", file=sys.stderr)
        sys.exit(3)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] +
                 targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            sys.exit(3)


def run(cmd, timeout):
    """Run @cmd from the repository root; return its exit status."""
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: timed out after %d s" % timeout, file=sys.stderr)
        return 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true",
                   help="build and run the benchmark's own tests")
    p.add_argument("--write-reference", action="store_true",
                   help="simulate every drawable run and rewrite "
                        "perfbench/reference.tsv")
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be >= 0")

    if args.selftest:
        build(["perfbench_selftest"])
        sys.exit(run([os.path.join(BUILD, "perfbench_selftest")], 600))
    build(["perfbench"])
    binary = os.path.join(BUILD, "perfbench")
    if args.write_reference:
        sys.exit(run([binary, "--write-reference", REFERENCE], 900))
    if not args.workload:
        p.error("--workload is required")
    sys.stdout.flush()
    sys.exit(run([binary, "--workload", args.workload,
                  "--seed", str(args.seed),
                  "--seconds", str(args.seconds),
                  "--trace", str(args.trace),
                  "--reference", REFERENCE,
                  "--work-dir", WORK], RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
