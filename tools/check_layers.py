#!/usr/bin/env python3
"""Include-layering lint for src/.

The engine refactor fixed a strict layering for the library proper
(tests, bench and examples are integration points and exempt):

    util                                   (0)
    stats, fault, mem                      (1)
    htm, persist  -- simulated NVM device  (2)
    core/engine   -- the shared engine     (3)
    stm           -- pure-STM sessions     (4)
    core          -- hybrid sessions and the
                     admission gate        (5)
    api           -- runtime facade        (6)
    structures                             (7)
    store         -- sharded KV store      (8)
    workloads                              (8)
    check         -- interleaving explorer (9)

A file may include project headers only from its own layer or lower
ranks. In particular the engine must never include the api: the
sessions are composed BY the runtime, they must not know about it
(the api includes engine headers directly, never the other way
around). And the check layer is a pure consumer: it may include
anything below (it schedules the engine and drives the api), but no
library code may include src/check -- only tests and bench link it.

Usage: tools/check_layers.py [repo-root]
Exits 1 and lists every violating include edge when the layering is
broken, 0 otherwise.
"""

import os
import re
import sys

# Longest-prefix match order: core/engine and core/admission must be
# tested before core. The admission gate rides at the session rank: it
# is consulted by the api facade and may use the engine's waiters, but
# the engine must never know admission exists (rank 3 < 5 forbids it).
LAYERS = [
    ("core/engine", 3),
    ("core/admission.h", 5),
    ("util", 0),
    ("stats", 1),
    ("fault", 1),
    ("mem", 1),
    ("htm", 2),
    ("persist", 2),
    ("stm", 4),
    ("core", 5),
    ("api", 6),
    ("structures", 7),
    ("store", 8),
    ("workloads", 8),
    ("check", 9),
]

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"(src/[^"]+)"')


def layer_of(rel):
    """Layer (name, rank) of a src/-relative path, or None."""
    for prefix, rank in LAYERS:
        if rel == prefix or rel.startswith(prefix + "/"):
            return prefix, rank
    return None


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..")
    src = os.path.join(root, "src")
    if not os.path.isdir(src):
        print(f"check_layers: no src/ under {root}", file=sys.stderr)
        return 2

    violations = []
    files = 0
    edges = 0
    for dirpath, _, names in os.walk(src):
        for name in sorted(names):
            if not name.endswith((".h", ".cc")):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            here = layer_of(os.path.relpath(path, src)
                            .replace(os.sep, "/"))
            if here is None:
                violations.append(
                    f"{rel}: not in any declared layer "
                    f"(update tools/check_layers.py)")
                continue
            files += 1
            with open(path, encoding="utf-8") as f:
                for lineno, line in enumerate(f, 1):
                    m = INCLUDE_RE.match(line)
                    if not m:
                        continue
                    edges += 1
                    target_rel = m.group(1)[len("src/"):]
                    there = layer_of(target_rel)
                    if there is None:
                        violations.append(
                            f"{rel}:{lineno}: includes {m.group(1)} "
                            f"which is in no declared layer")
                        continue
                    if here[0] == "core/engine" and there[0] == "api":
                        violations.append(
                            f"{rel}:{lineno}: the engine must not "
                            f"include the api ({m.group(1)})")
                    elif there[0] == "check" and here[0] != "check":
                        violations.append(
                            f"{rel}:{lineno}: src/check is a leaf "
                            f"consumer; library code must not include "
                            f"it ({m.group(1)})")
                    elif there[1] > here[1]:
                        violations.append(
                            f"{rel}:{lineno}: layer '{here[0]}' "
                            f"(rank {here[1]}) includes {m.group(1)} "
                            f"from higher layer '{there[0]}' "
                            f"(rank {there[1]})")

    if violations:
        print(f"include-layering violations ({len(violations)}):")
        for v in violations:
            print(f"  {v}")
        return 1
    print(f"layering OK ({files} files, {edges} include edges)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
