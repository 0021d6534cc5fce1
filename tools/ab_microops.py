#!/usr/bin/env python3
"""Drive the commit-path A/B microops and fold them into a capture.

Usage: tools/ab_microops.py [--bench=build/bench/bench_microops]
                            [--rounds=3] [--min-time=0.05]
                            [--band=0.35] [--out=BENCH_10.json]

Runs the three commit-path campaign cells in bench_microops
(docs/COMMIT_PATH.md) as ALTERNATING off/on rounds -- round 1 runs
off then on, round 2 on then off, and so on -- so slow drift on the
host (thermal, noisy neighbors) cannot systematically favor one
variant. Each (benchmark, variant) keeps its fastest round (min),
the standard noise-floor estimator for microbenchmarks.

The folded result is written as a BENCH capture with the top-level
family "microops-ab": incomparable with the crash/adversary/store
families by design (tools/diff_bench.py reports those diffs as
no-ops), comparable cell-by-cell against future captures of the same
family via the "throughput" metric (iterations/second).

Exit status is 1 if any front's ON variant is slower than its OFF
baseline beyond the noise band -- an optimization that costs more
than the container-timing noise is a regression, not noise.
"""

import json
import os
import subprocess
import sys

# Benchmark base name -> the campaign front its flag toggles.
FRONTS = {
    "BM_ValidateAcrossCommits": "read-filter",
    "BM_ReadOwnWrites": "redo-index",
    "BM_ExtendAcrossCommits": "ts-extension",
}


def run_variant(bench, on, min_time):
    """One benchmark-binary run restricted to a single variant."""
    cmd = [
        bench,
        f"--benchmark_filter=on:{1 if on else 0}",
        f"--benchmark_min_time={min_time}",
        "--benchmark_format=json",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=True)
    out = json.loads(proc.stdout)
    cells = {}
    for b in out.get("benchmarks", []):
        base = b["name"].split("/")[0]
        if base not in FRONTS:
            continue
        if b.get("time_unit", "ns") != "ns":
            raise SystemExit(f"unexpected time unit in {b['name']}")
        # label is "<algo>/<off|on>", set by the benchmark itself.
        algo = b["label"].split("/")[0]
        cells[base] = {
            "algo": algo,
            "ns_per_iter": float(b["real_time"]),
            "threads": int(b.get("threads", 1)),
        }
    return cells


def main():
    bench = "build/bench/bench_microops"
    rounds = 3
    min_time = 0.05
    band = 0.35
    out_path = "BENCH_10.json"
    for arg in sys.argv[1:]:
        if arg.startswith("--bench="):
            bench = arg.split("=", 1)[1]
        elif arg.startswith("--rounds="):
            rounds = int(arg.split("=", 1)[1])
        elif arg.startswith("--min-time="):
            min_time = float(arg.split("=", 1)[1])
        elif arg.startswith("--band="):
            band = float(arg.split("=", 1)[1])
        elif arg.startswith("--out="):
            out_path = arg.split("=", 1)[1]
        else:
            print(f"unknown flag: {arg}", file=sys.stderr)
            return 2

    # best[(base, variant)] = fastest observed cell across rounds.
    best = {}
    for r in range(rounds):
        order = (False, True) if r % 2 == 0 else (True, False)
        for on in order:
            variant = "on" if on else "off"
            print(f"-- round {r + 1}/{rounds}: {variant}", flush=True)
            for base, cell in run_variant(bench, on, min_time).items():
                key = (base, variant)
                if (key not in best or
                        cell["ns_per_iter"] < best[key]["ns_per_iter"]):
                    best[key] = cell

    cells = []
    summary = {}
    regressions = []
    for base, front in sorted(FRONTS.items()):
        off = best.get((base, "off"))
        on = best.get((base, "on"))
        if off is None or on is None:
            print(f"missing variant for {base}", file=sys.stderr)
            return 1
        for variant, cell in (("off", off), ("on", on)):
            cells.append({
                "front": front,
                "benchmark": base,
                "algo": cell["algo"],
                "variant": variant,
                "threads": cell["threads"],
                "ns_per_iter": cell["ns_per_iter"],
                "throughput": 1e9 / cell["ns_per_iter"],
            })
        speedup = off["ns_per_iter"] / on["ns_per_iter"]
        verdict = ("WIN" if speedup > 1.0 + band else
                   "REGRESSION" if speedup < 1.0 / (1.0 + band) else
                   "flat")
        summary[front] = {
            "off_ns": off["ns_per_iter"],
            "on_ns": on["ns_per_iter"],
            "speedup": speedup,
            "verdict": verdict,
        }
        if verdict == "REGRESSION":
            regressions.append(front)

    capture = {
        "bench": "microops-ab",
        "generated_by": "tools/ab_microops.py",
        "rounds": rounds,
        "host_threads": os.cpu_count(),
        "cells": cells,
        "summary": summary,
    }
    with open(out_path, "w") as f:
        json.dump(capture, f, indent=2, sort_keys=True)
        f.write("\n")

    wins = 0
    for front, s in summary.items():
        print(f"{front:>14}: off {s['off_ns']:>10.0f} ns  "
              f"on {s['on_ns']:>10.0f} ns  "
              f"speedup {s['speedup']:.2f}x  [{s['verdict']}]")
        wins += s["verdict"] == "WIN"
    print(f"ab_microops: {wins} front(s) win beyond the +/-{band:.0%} "
          f"band; capture written to {out_path}")
    if regressions:
        print(f"ab_microops: REGRESSION on: {', '.join(regressions)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
