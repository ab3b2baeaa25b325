#!/usr/bin/env python3
"""Determinism self-check of the benchmark.

Two runs of a workload with the same seed must agree exactly on
proposed_area_ge, search.combinations and represent.reps, and on
alloc_mw_per_synth within 1 %.  Exits 1 when a pair disagrees.

    python3 perfbench/selfcheck.py [--seed N] [--seconds S] [WORKLOAD ...]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

# (metric, relative tolerance, traced run)
CHECKS = (
    ("proposed_area_ge", 0.0, 0),
    ("alloc_mw_per_synth", 0.01, 0),
    ("search.combinations", 0.0, 1),
    ("represent.reps", 0.0, 1),
)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=list(run.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args()
    run.build()
    agree = True
    for workload in args.workloads:
        runs = {trace: [run.measure(workload, args.seed, args.seconds,
                                    trace)[0]["metrics"]
                        for _ in range(2)]
                for trace in (0, 1)}
        for name, tolerance, trace in CHECKS:
            a, b = (m[name]["value"] for m in runs[trace])
            same = abs(a - b) <= tolerance * abs(a)
            agree = agree and same
            print(f"{workload:13} {name:20} {a:>16.8g} {b:>16.8g}  "
                  f"{'same' if same else 'DIFFERENT'}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
