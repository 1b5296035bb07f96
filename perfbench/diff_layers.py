#!/usr/bin/env python3
"""Per-layer diff of two traced perfbench outputs.

  python3 perfbench/run.py --workload pool-sdga --seed 1 --seconds 20 \\
      --trace 1 > before.txt
  ... change the program, rebuild ...
  python3 perfbench/run.py --workload pool-sdga --seed 1 --seconds 20 \\
      --trace 1 > after.txt
  python3 perfbench/diff_layers.py before.txt after.txt

Prints every per-layer metric of both runs with its change, so a change
can show which layer a saving came from. With --same-work it also exits 1
when the work counters differ: two traced runs of one program on one seed
must do identical work.
"""
import argparse
import json
import sys

# Counts fixed by the input, the seed and the program; they must repeat
# exactly between runs of one program. (service.*_jobs depend on timing.)
WORK_COUNTERS = [
    "core.sra.rounds",
    "core.gain_cache.patched_cells",
    "core.gain_cache.rebuilt_cells",
    "core.gain_cache.full_builds",
    "la.auction.bids",
    "la.auction.rounds",
    "la.objective_mismatches",
    "la.auction_failures",
]


def load(path):
    with open(path) as f:
        lines = [line for line in f.read().split("\n") if line.strip()]
    return json.loads(lines[-1])["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("--same-work", action="store_true",
                        help="exit 1 when a work counter differs")
    args = parser.parse_args()
    before, after = load(args.before), load(args.after)
    print(f"{'metric':34} {'unit':6} {'before':>14} {'after':>14} "
          f"{'change':>9}")
    for name in sorted(set(before) | set(after)):
        a = before.get(name, {}).get("value")
        b = after.get(name, {}).get("value")
        unit = (before.get(name) or after.get(name))["unit"]
        if a is None or b is None:
            print(f"{name:34} {unit:6} {a!s:>14} {b!s:>14} {'n/a':>9}")
            continue
        change = f"{100.0 * (b - a) / abs(a):+8.1f}%" if a else (
            "    same" if b == a else "     new")
        print(f"{name:34} {unit:6} {a:14.6g} {b:14.6g} {change:>9}")
    differing = [name for name in WORK_COUNTERS
                 if before.get(name, {}).get("value") !=
                 after.get(name, {}).get("value")]
    if differing:
        print(f"work counters differ: {', '.join(differing)}")
    else:
        print("work counters identical")
    if args.same_work and differing:
        sys.exit(1)


if __name__ == "__main__":
    main()
