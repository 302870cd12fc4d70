#!/usr/bin/env python3
"""Steadiness report: run the benchmark repeatedly and summarize spread.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10                  # every workload
    python3 perfbench/steadiness.py --runs 5 --workload campaign-cold

Each run uses another seed (--first-seed, --first-seed + 1, ...). For
every workload and end-to-end metric the report gives the median, the
first and third quartiles (statistics.quantiles(values, n=4)), the
interquartile spread as a share of the median, and that spread as a
share of the metric's bound in BENCHMARK.json. A benchmark is steady
when every spread stays below a third of its bound. Raw results are
appended as JSON lines to .bench_build/steadiness.jsonl, so a report can
be recomputed from them with --from-log.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LOG = os.path.join(ROOT, ".bench_build", "steadiness.jsonl")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d)" %
                           (workload, seed, out.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError("%s seed %d: incorrect result" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def report(records, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    by_workload = {}
    for r in records:
        by_workload.setdefault(r["workload"], []).append(r["metrics"])
    rows = []
    print("| workload | metric | runs | median | q1 | q3 | spread | "
          "spread / bound |")
    print("|---|---|---|---|---|---|---|---|")
    for workload, runs in by_workload.items():
        for name, bound in bounds.items():
            values = [m[name] for m in runs if name in m]
            if len(values) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            rows.append((workload, name, spread, bound))
            print("| %s | %s | %d | %.6g | %.6g | %.6g | %.3f | %.2f |" %
                  (workload, name, len(values), q2, q1, q3, spread,
                   spread / bound))
    worst = max((r[2] / r[3] for r in rows if r[1] != "setup_s"),
                default=0.0)
    print("\nlargest spread / bound (setup_s excepted): %.2f "
          "(steady below 0.33)" % worst)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable; default all)")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=101)
    p.add_argument("--seconds", type=float,
                   help="run length (default: run_seconds)")
    p.add_argument("--from-log", action="store_true",
                   help="report on the logged runs instead of running")
    args = p.parse_args()
    spec = load_spec()

    if args.from_log:
        with open(LOG) as f:
            records = [json.loads(line) for line in f if line.strip()]
        if args.workload:
            records = [r for r in records if r["workload"] in args.workload]
        report(records, spec)
        return

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    os.makedirs(os.path.dirname(LOG), exist_ok=True)
    records = []
    for workload in workloads:
        for i in range(args.runs):
            seed = args.first_seed + i
            metrics = run_once(workload, seed, seconds)
            rec = {"workload": workload, "seed": seed, "seconds": seconds,
                   "metrics": metrics}
            records.append(rec)
            with open(LOG, "a") as f:
                f.write(json.dumps(rec) + "\n")
            print("%s seed %d: %s" % (workload, seed, json.dumps(metrics)),
                  file=sys.stderr)
    report(records, spec)


if __name__ == "__main__":
    main()
