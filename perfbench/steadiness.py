#!/usr/bin/env python3
"""Steadiness report: the evidence BENCHMARK.json's bounds are set from.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1-10] [--seconds 10]

Runs each workload once per seed through run.py (one run at a time, so runs
do not compete for cores), then prints, for every end-to-end metric, the
median, the first and third quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median next to the metric's bound.  A metric is flagged
when its spread exceeds a third of its bound; setup_s is exempt, as its
bound limits only the shift of its median between two sets of runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False)
    if out.returncode != 0:
        raise SystemExit("%s seed %d: run.py exited with %d" % (workload, seed, out.returncode))
    return json.loads(out.stdout.splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="paper_fig3,sweep_ckpt,serve_read,serve_write")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    bounds = {metric["name"]: metric["bound"] for metric in bench["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in seeds:
            result = run_once(workload, seed, seconds, 0)
            if not result["correct"]:
                steady = False
                print("%s seed %d: correctness gate failed" % (workload, seed))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print("%s (%d seeds, %d s runs)" % (workload, len(seeds), seconds))
        for name, samples in values.items():
            q1, q2, q3 = statistics.quantiles(samples, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            flagged = name != "setup_s" and spread > bounds[name] / 3
            steady = steady and not flagged
            print("  %-12s median %-12.6g Q1 %-12.6g Q3 %-12.6g spread %6.2f%% bound %4.0f%%%s"
                  % (name, q2, q1, q3, 100 * spread, 100 * bounds[name],
                     "  <-- over a third of the bound" if flagged else ""))
            print("  %-12s values %s" % ("", " ".join("%.6g" % v for v in samples)))
        sys.stdout.flush()
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
