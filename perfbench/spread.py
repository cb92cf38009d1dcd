#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs perfbench/run.py once per seed on each named workload and prints,
for every end-to-end metric, the median of the runs and the spread:
the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to
the metric's bound from BENCHMARK.json. Run from the repository root:

    python3 perfbench/spread.py --workloads hot_skew scatter --seeds 1 2 3 4 5

Runs are sequential; each prints its result line to stderr as it ends.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    worst = 0.0
    for wl in args.workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.stderr.write(out.stderr[-2000:])
                print("%s seed %d: exit %d" % (wl, seed, out.returncode))
                return 1
            result = json.loads(lines[-1])
            print("%s seed %d: %s" % (wl, seed, lines[-1]), file=sys.stderr)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print("== %s (%d runs)" % (wl, len(args.seeds)))
        for m in metrics:
            v = values[m["name"]]
            med = statistics.median(v)
            if len(v) >= 2 and med != 0:
                q1, _, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / abs(med)
            else:
                spread = 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                worst = max(worst, spread / bound)
                flag = "  (spread/bound %.2f)" % (spread / bound)
            print("  %-40s median %-12.6g spread %.3f  bound %s%s" %
                  (m["name"], med, spread, bound, flag))
    if args.trace == 0:
        print("worst spread/bound: %.2f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
