#!/usr/bin/env python3
"""Regression test: summarize_bench.py on a directory of captures.

Usage: summarize_bench_test.py <repo_root>

Drives tools/summarize_bench.py over the fixture pair in
tests/tools/fixtures/ -- two captures in the current 31-column schema
-- three ways: each file alone, then the directory holding both. The
directory form used to crash with IsADirectoryError; now the fold-in
is per-file and every row must survive into one table.
"""

import os
import subprocess
import sys


def run(tool, target):
    proc = subprocess.run(
        [sys.executable, tool, target, "--threads=8"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return proc.returncode, proc.stdout


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[2].strip())
        return 2
    root = sys.argv[1]
    tool = os.path.join(root, "tools", "summarize_bench.py")
    fixtures = os.path.join(root, "tests", "tools", "fixtures")
    current = os.path.join(fixtures, "current.csv")
    second = os.path.join(fixtures, "current_norec.csv")

    failures = []

    def check(name, cond, detail):
        if not cond:
            failures.append(f"{name}: {detail}")

    # Each file parses on its own.
    rc, out = run(tool, current)
    check("current-alone", rc == 0, f"exit {rc}\n{out}")
    check("current-alone", "12,346" in out, f"missing row\n{out}")

    rc, out = run(tool, second)
    check("second-alone", rc == 0, f"exit {rc}\n{out}")
    check("second-alone", "11,111" in out, f"missing row\n{out}")

    # The directory: no crash, and rows from BOTH files fold into the
    # summary (one file contributes the norec row, the other rh-norec
    # and hy-norec).
    rc, out = run(tool, fixtures)
    check("mixed-dir", rc == 0, f"exit {rc}\n{out}")
    for needle in ("12,346", "9,876", "11,111"):
        check("mixed-dir", needle in out,
              f"row {needle} not folded in\n{out}")
    check("mixed-dir", "rh/hy throughput" in out,
          f"headline ratios missing\n{out}")

    if failures:
        print("summarize_bench_test FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("summarize_bench_test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
