#!/usr/bin/env python3
"""Run the paper benchmark k times per workload and report its spread.

    python3 perfbench/steadiness.py --runs 10 --save set1.json
    python3 perfbench/steadiness.py --runs 10 --against set1.json

Each run uses another seed (seed-base, seed-base+1, ...); runs cycle
through the workloads so slow host drift lands on all of them alike.
For every end-to-end metric of every workload it prints the median,
the quartiles, the spread (q3 - q1) / median, and max/min, and marks a
spread above a third of the metric's bound in BENCHMARK.json. With
--against it also prints how far each median moved, in the metric's
worse direction, relative to a saved set, and marks a move beyond the
bound. Exits nonzero if a run fails or reports incorrect output.
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
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        sys.exit("run failed (exit %d): %s" % (done.returncode, cmd))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("incorrect output: %s" % cmd)
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(workloads))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="write the raw results here")
    ap.add_argument("--against", help="compare medians with a saved set")
    args = ap.parse_args()

    chosen = args.workloads.split(",")
    results = {w: [] for w in chosen}
    for i in range(args.runs):
        for w in chosen:
            seed = args.seed_base + i
            results[w].append(run_once(w, seed, args.seconds, args.trace))
            print("run %d/%d %s seed %d done" % (i + 1, args.runs, w, seed),
                  file=sys.stderr)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f)
    other = None
    if args.against:
        with open(args.against) as f:
            other = json.load(f)

    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    print("%-14s %-24s %12s %12s %12s %7s %7s %7s %s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "max/min",
        "bound", "shift" if other else ""))
    for w in chosen:
        names = results[w][0]["metrics"].keys()
        for name in names:
            vals = [r["metrics"][name]["value"] for r in results[w]]
            med = statistics.median(vals)
            q1, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            lo = min(vals)
            maxmin = max(vals) / lo if lo else float("inf")
            spec = specs.get(name, {})
            bound = spec.get("bound")
            flag = ""
            if bound is not None and name != "setup_s" and \
                    spread > bound / 3:
                flag += " SPREAD>bound/3"
            shift = ""
            if other and w in other:
                ovals = [r["metrics"][name]["value"] for r in other[w]]
                omed = statistics.median(ovals)
                worse = (med - omed) / omed if omed else 0.0
                if spec.get("better") == "higher":
                    worse = -worse
                shift = "%+.4f" % worse
                if bound is not None and worse > bound:
                    flag += " SHIFT>bound"
            print("%-14s %-24s %12.6g %12.6g %12.6g %7.4f %7.3f %7s %s%s" % (
                w, name, med, q1, q3, spread, maxmin,
                "" if bound is None else "%.2f" % bound, shift, flag))


if __name__ == "__main__":
    main()
