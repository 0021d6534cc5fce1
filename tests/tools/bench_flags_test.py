#!/usr/bin/env python3
"""Regression test: bench binaries reject flags they do not know.

Usage: bench_flags_test.py BENCH_BINARY...

A mistyped or retired flag used to be ignored: the binary ran another
experiment than the one asked for and still exited 0. Each binary must
instead exit 2 and name the flag on stderr, both for the retired
commit-path switches (--group-commit, --read-filter, --redo-index,
--ts-extension) and a made-up one (--no-such-flag). Flags are checked
before any cell runs, so this takes no time.
"""

import subprocess
import sys

RETIRED = ("--group-commit=on", "--read-filter=on", "--redo-index=off",
           "--ts-extension=off")


def main():
    if len(sys.argv) < 2:
        print(__doc__.strip().splitlines()[2].strip())
        return 2
    failures = []
    for binary in sys.argv[1:]:
        for flag in RETIRED + ("--no-such-flag",):
            proc = subprocess.run([binary, flag], capture_output=True,
                                  text=True, timeout=60)
            if proc.returncode != 2 or flag[2:].split("=")[0] not in \
                    proc.stderr:
                failures.append(f"{binary} {flag}: exit "
                                f"{proc.returncode}, {proc.stderr!r}")
    print("\n".join(failures) or
          f"bench_flags_test passed ({len(sys.argv) - 1} binaries)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
