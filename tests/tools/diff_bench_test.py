#!/usr/bin/env python3
"""Regression test: diff_bench.py picks a baseline of the same family.

Usage: diff_bench_test.py <repo_root>

tests/tools/diff_bench_fixtures/ holds two prior captures of different
bench families: BENCH_7.json ("adversary") and the newer BENCH_10.json
("microops-ab"). A new adversary capture must be diffed cell by cell
against BENCH_7.json, not against the newest file, whose family would
turn the diff into a silent no-op. The cases run in a scratch copy of
the fixtures, since the tool looks for baselines next to the new file.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[2].strip())
        return 2
    tool = os.path.join(sys.argv[1], "tools", "diff_bench.py")
    fixtures = os.path.join(
        sys.argv[1], "tests", "tools", "diff_bench_fixtures")
    with open(os.path.join(fixtures, "BENCH_7.json")) as f:
        adversary = json.load(f)
    worse = json.loads(json.dumps(adversary))
    worse["cells"][1]["p99_us"] *= 3

    # (new file, its capture, extra args, exit status, expected lines)
    cases = [
        # Unnumbered, as tools/ci.sh stages its sweep; nothing drifted.
        ("BENCH_ci_tmp.json", adversary, [], 0,
         ["vs BENCH_7.json: 2 comparable cells",
          "no regressions beyond the noise band"]),
        # Newer than both fixtures, one p99 tripled: --strict fails.
        ("BENCH_11.json", worse, ["--strict"], 1,
         ["vs BENCH_7.json: 2 comparable cells",
          "p99_us: 120.0 -> 360.0"]),
        # A family with no prior capture has nothing to diff.
        ("BENCH_12.json", {"bench": "store", "cells": []}, [], 0,
         ["no prior 'store' capture"]),
    ]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("BENCH_7.json", "BENCH_10.json"):
            shutil.copy(os.path.join(fixtures, name), tmp)
        for name, capture, args, status, expected in cases:
            path = os.path.join(tmp, name)
            with open(path, "w") as f:
                json.dump(capture, f)
            proc = subprocess.run(
                [sys.executable, tool, path] + args,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True)
            if proc.returncode != status or not all(
                    line in proc.stdout for line in expected):
                failures.append(f"{name}: exit {proc.returncode}, "
                                f"want {status} and {expected}\n"
                                f"{proc.stdout}")
    if failures:
        print("diff_bench_test FAILED:\n" + "\n".join(failures))
        return 1
    print("diff_bench_test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
