#!/usr/bin/env python3
"""Summarize bench_output.txt into per-figure markdown tables.

Usage: tools/summarize_bench.py [bench_output.txt|capture_dir/]
                                [--threads=8]

For every benchmark in the capture, prints a compact table of
throughput and the paper's analysis rows at the chosen thread count,
plus the RH-vs-HY headline ratios.

The path may be a directory of captures: every file in it is parsed
independently and the rows are folded into one summary. Lines that do
not match the current column schema are skipped.
"""

import os
import sys
from collections import defaultdict

COLS = [
    "bench", "algo", "threads", "seconds", "ops", "throughput",
    "conflict", "capacity", "restarts", "slowpath", "prefix",
    "postfix", "injected", "subscription", "attempts", "ks_act",
    "ks_bypass", "p50_us", "p99_us", "max_us", "stalls", "irrev",
    "accesses", "crashes", "replayed", "discarded", "recovery_ms",
    "deadline_exc", "adm_shed", "adm_queued",
    "verified",
]

FLOAT_COLS = ("throughput", "conflict", "capacity", "restarts",
              "slowpath", "prefix", "postfix", "injected",
              "subscription", "attempts", "ks_bypass", "p50_us",
              "p99_us", "max_us", "accesses", "recovery_ms")


def ns_per_access(row):
    """Average cost of one transactional access, derived from the
    throughput and the per-op access rate (0 when not captured)."""
    rate = row["throughput"] * row["accesses"]
    return 1e9 / rate if rate > 0 else 0.0


def parse(path):
    """Parse one capture file, or fold in every file of a directory.

    The fold-in is per-file, so a directory path does not crash with
    IsADirectoryError.
    """
    if os.path.isdir(path):
        rows = []
        for name in sorted(os.listdir(path)):
            sub = os.path.join(path, name)
            if os.path.isfile(sub):
                rows.extend(parse(sub))
        return rows
    rows = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith(("#", "bench,", "###")):
                continue
            parts = line.split(",")
            if len(parts) != len(COLS):
                continue
            row = dict(zip(COLS, parts))
            try:
                row["threads"] = int(row["threads"])
                row["ks_act"] = int(row["ks_act"])
                row["stalls"] = int(row["stalls"])
                row["irrev"] = int(row["irrev"])
                row["crashes"] = int(row["crashes"])
                row["replayed"] = int(row["replayed"])
                row["discarded"] = int(row["discarded"])
                row["deadline_exc"] = int(row["deadline_exc"])
                row["adm_shed"] = int(row["adm_shed"])
                row["adm_queued"] = int(row["adm_queued"])
                for k in FLOAT_COLS:
                    row[k] = float(row[k])
            except ValueError:
                continue
            rows.append(row)
    return rows


def main():
    path = "bench_output.txt"
    threads = 8
    for arg in sys.argv[1:]:
        if arg.startswith("--threads="):
            threads = int(arg.split("=", 1)[1])
        else:
            path = arg

    rows = parse(path)
    benches = defaultdict(list)
    for r in rows:
        if r["threads"] == threads:
            benches[r["bench"]].append(r)

    for bench in benches:
        print(f"### {bench} @ {threads} threads\n")
        show_faults = any(r["injected"] > 0 or r["ks_act"] > 0
                          for r in benches[bench])
        show_lat = any(r["max_us"] > 0 or r["stalls"] > 0
                       for r in benches[bench])
        show_irrev = any(r["irrev"] > 0 for r in benches[bench])
        show_access = any(r["accesses"] > 0 for r in benches[bench])
        show_recovery = any(r["crashes"] > 0 or r["replayed"] > 0
                            for r in benches[bench])
        show_overload = any(r["deadline_exc"] > 0 or r["adm_shed"] > 0
                            or r["adm_queued"] > 0
                            for r in benches[bench])
        fault_hdr = " inj/op | ks | " if show_faults else " "
        fault_sep = "---|---|" if show_faults else ""
        lat_hdr = " p50us | p99us | stalls | " if show_lat else " "
        lat_sep = "---|---|---|" if show_lat else ""
        irrev_hdr = " irrev | " if show_irrev else " "
        irrev_sep = "---|" if show_irrev else ""
        access_hdr = " acc/op | ns/acc | " if show_access else " "
        access_sep = "---|---|" if show_access else ""
        rec_hdr = (" crashes | replayed | discarded | rec_ms | "
                   if show_recovery else " ")
        rec_sep = "---|---|---|---|" if show_recovery else ""
        over_hdr = (" dl_exc | shed | q_ticks | "
                    if show_overload else " ")
        over_sep = "---|---|---|" if show_overload else ""
        extra_hdr = (fault_hdr.rstrip() + lat_hdr.rstrip() +
                     irrev_hdr.rstrip() + access_hdr.rstrip() +
                     rec_hdr.rstrip() + over_hdr)
        print("| algo | ops/s | conf/op | cap/op | restarts | "
              f"slow% | prefix | postfix |{extra_hdr}ok |")
        print(f"|---|---|---|---|---|---|---|---|{fault_sep}"
              f"{lat_sep}{irrev_sep}{access_sep}{rec_sep}{over_sep}---|")
        by_algo = {}
        for r in benches[bench]:
            by_algo[r["algo"]] = r
            fault_cells = ""
            if show_faults:
                fault_cells = (f" {r['injected']:.4f} "
                               f"| {r['ks_act']} |")
            lat_cells = ""
            if show_lat:
                lat_cells = (f" {r['p50_us']:.1f} | {r['p99_us']:.1f} "
                             f"| {r['stalls']} |")
            irrev_cells = f" {r['irrev']} |" if show_irrev else ""
            access_cells = ""
            if show_access:
                access_cells = (f" {r['accesses']:.2f} "
                                f"| {ns_per_access(r):.1f} |")
            rec_cells = ""
            if show_recovery:
                rec_cells = (f" {r['crashes']} | {r['replayed']} "
                             f"| {r['discarded']} "
                             f"| {r['recovery_ms']:.3f} |")
            over_cells = ""
            if show_overload:
                over_cells = (f" {r['deadline_exc']} | {r['adm_shed']} "
                              f"| {r['adm_queued']} |")
            print(f"| {r['algo']} | {r['throughput']:,.0f} "
                  f"| {r['conflict']:.4f} | {r['capacity']:.4f} "
                  f"| {r['restarts']:.3f} | {100 * r['slowpath']:.1f} "
                  f"| {r['prefix']:.2f} | {r['postfix']:.2f} "
                  f"|{fault_cells}{lat_cells}{irrev_cells}"
                  f"{access_cells}{rec_cells}{over_cells} "
                  f"{r['verified']} |")
        rh, hy = by_algo.get("rh-norec"), by_algo.get("hy-norec")
        if rh and hy:
            tput = rh["throughput"] / hy["throughput"] if hy[
                "throughput"] else 0
            conf = (hy["conflict"] / rh["conflict"]
                    if rh["conflict"] > 0 else float("inf"))
            rst = (hy["restarts"] / rh["restarts"]
                   if rh["restarts"] > 0 else float("inf"))
            print(f"\nrh/hy throughput = {tput:.2f}x, "
                  f"hy/rh conflicts = {conf:.2f}x, "
                  f"hy/rh restarts = {rst:.2f}x")
        print()


if __name__ == "__main__":
    main()
