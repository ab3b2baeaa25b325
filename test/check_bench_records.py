#!/usr/bin/env python3
"""Check the committed benchmark evidence records (BENCH_PR<n>.json).

A record holds alternating perfbench runs of a parent commit and a
change, one pair per seed, for each workload; a summary of each
end-to-end metric; and, when the change claims a gain, the claim.  For
each workload this checks that:

- every pair has both sides ``correct: true``;
- ``first`` alternates from pair to pair;
- each summary's median, q1 and q3 equal
  ``statistics.quantiles(n=4, method='inclusive')`` over the pairs;
- ``change_wins`` and ``change_losses`` match the pairs, in the metric's
  ``better`` direction from BENCHMARK.json; a tie counts for neither side.

For the claim, it checks that the claimed workload has at least 10 pairs
and recomputes the claim rule: the change wins at least 9 of 10 pairs, and
its median is better than the parent's by more than the parent's
interquartile distance.  The rule must agree with the claim's ``met``
(a claim without ``met`` asserts that it is met).

Usage, from the root of a checkout:

    python3 test/check_bench_records.py [RECORD.json ...]

With no argument it checks every BENCH_PR*.json in the root.  It prints
each mismatch and exits 1 if there is any.
"""

import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_CLAIM_PAIRS = 10
CLAIM_WIN_SHARE = 0.9


def better_directions(benchmark):
    """Metric name -> "lower" or "higher", from BENCHMARK.json."""
    return {m["name"]: m["better"] for m in benchmark["end_to_end"]}


def metric_values(pairs, side, metric):
    return [p[side]["result"]["metrics"][metric]["value"] for p in pairs]


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def improvement(parent, change, better):
    """How much better [change] is than [parent]: positive is a gain."""
    return parent - change if better == "lower" else change - parent


def wins_losses(pairs, metric, better):
    gains = [
        improvement(p, c, better)
        for p, c in zip(
            metric_values(pairs, "parent", metric),
            metric_values(pairs, "change", metric),
        )
    ]
    return sum(g > 0 for g in gains), sum(g < 0 for g in gains)


def check_workload(name, workload, directions):
    errors = []
    pairs = workload["pairs"]
    if len(pairs) < 2:
        return [f"{name}: {len(pairs)} pair(s), at least 2 needed"]
    for p in pairs:
        for side in ("parent", "change"):
            if p[side]["result"].get("correct") is not True:
                errors.append(f"{name}: seed {p['seed']} {side} is not correct")
    for a, b in zip(pairs, pairs[1:]):
        if a["first"] == b["first"]:
            errors.append(
                f"{name}: seeds {a['seed']} and {b['seed']} both run "
                f"{a['first']} first"
            )
    for metric, summary in workload["summary"].items():
        where = f"{name} {metric}"
        better = directions.get(metric)
        if better is None:
            errors.append(f"{where}: not an end-to-end metric of BENCHMARK.json")
            continue
        for side in ("parent", "change"):
            recomputed = quartiles(metric_values(pairs, side, metric))
            for key, value in recomputed.items():
                if not math.isclose(summary[side][key], value, rel_tol=1e-9,
                                    abs_tol=1e-12):
                    errors.append(
                        f"{where}: {side} {key} is {summary[side][key]}, "
                        f"the pairs give {value}"
                    )
        wins, losses = wins_losses(pairs, metric, better)
        if (summary["change_wins"], summary["change_losses"]) != (wins, losses):
            errors.append(
                f"{where}: change wins/losses "
                f"{summary['change_wins']}/{summary['change_losses']}, "
                f"the pairs give {wins}/{losses}"
            )
    return errors


def claim_met(workload, metric, better):
    """The claim rule over a workload's pairs."""
    pairs = workload["pairs"]
    wins, _ = wins_losses(pairs, metric, better)
    parent = quartiles(metric_values(pairs, "parent", metric))
    change = quartiles(metric_values(pairs, "change", metric))
    gain = improvement(parent["median"], change["median"], better)
    return (wins >= CLAIM_WIN_SHARE * len(pairs)
            and gain > parent["q3"] - parent["q1"])


def check_claim(claim, workloads, directions):
    name, metric = claim["workload"], claim["metric"]
    where = f"claim {name} {metric}"
    if name not in workloads:
        return [f"{where}: no such workload in the record"]
    if metric not in directions:
        return [f"{where}: not an end-to-end metric of BENCHMARK.json"]
    pairs = workloads[name]["pairs"]
    if len(pairs) < MIN_CLAIM_PAIRS:
        return [f"{where}: {len(pairs)} pairs, at least {MIN_CLAIM_PAIRS} needed"]
    met = claim_met(workloads[name], metric, directions[metric])
    stated = claim.get("met", True)
    if met != stated:
        return [f"{where}: states met={stated}, the pairs give met={met}"]
    return []


def check_record(record, directions):
    """Every mismatch in one record, as messages; empty when it checks."""
    errors = []
    workloads = record["workloads"]
    for name, workload in workloads.items():
        errors += check_workload(name, workload, directions)
    if "claim" in record:
        errors += check_claim(record["claim"], workloads, directions)
    return errors


def main(argv):
    directions = better_directions(json.loads((ROOT / "BENCHMARK.json").read_text()))
    paths = [Path(a) for a in argv] or sorted(ROOT.glob("BENCH_PR*.json"))
    if not paths:
        print("no BENCH_PR*.json record to check")
        return 1
    failed = False
    for path in paths:
        errors = check_record(json.loads(path.read_text()), directions)
        for e in errors:
            print(f"{path.name}: {e}")
        print(f"{path.name}: {'FAILED' if errors else 'ok'}")
        failed = failed or bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
