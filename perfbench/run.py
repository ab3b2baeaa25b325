#!/usr/bin/env python3
"""polysynth benchmark: three synthesis workloads through the Engine API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sg-banks --seed 1 --seconds 20 --trace 0

The first run builds perfbench/ocaml against the checkout's lib/ in a dune
workspace of its own under .bench_build/.  A run starts the program
PROCESSES times, one after another; each process sets the workload up
SETUPS times, runs a fixed number of whole passes of it and prints raw
measurements.  This script checks every request, prints a summary and ends
with one JSON line {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics of a traced replay
with --trace 1.
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKSPACE = os.path.join(BUILD_DIR, "workspace")
PROGRAM = os.path.join(WORKSPACE, "_build", "default", "bench", "main.exe")
WORKLOADS = ("sg-banks", "small-search", "warm-iterate")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170

# Seconds one untraced pass of each workload takes, calibrations included,
# on a 2-core Xeon host.  They fix how many passes a run makes, so the pass
# count, and with it every estimate below, does not depend on how fast a
# run goes.
PASS_SECONDS = {"sg-banks": 3.8, "small-search": 2.0, "warm-iterate": 3.4}

# A run's passes are shared out over this many processes.  Identical
# processes ran up to 25 % apart on that host while every pass within one
# process ran within a few percent of the others: the speed a process gets
# (where its heap lands, what shares the core with it) holds for its whole
# life.  So every time is the median over the processes.  Process i of
# a run with seed n gets seed PROCESSES * n + i, so that a run covers
# several request orders: the peak heap depends on the order (40-50 MB over
# the orders of sg-banks), and its mean over five orders much less.
PROCESSES = 5
SETUPS = 3
# A traced run starts fewer: its per-layer figures have no bounds, and five
# traced processes of sg-banks took 145 s, near the limit on a run.
TRACE_PROCESSES = 2

# How long one calibration (ocaml/calib.ml) typically takes on that host.
# Every time the benchmark reports is scaled to this speed: in
# a process whose calibrations took twice as long at the median, times
# count half.  Other tenants of a shared host moved raw CPU times by up to
# 70 % between runs; the calibrations move with them.
REF_CALIB_NS = 4.5e6

# The traced run fails when, summed over the requests, the replay's flow
# spans cover less than this share of the engine's time ...
MIN_COVERAGE_PCT = 90.0
# ... or the replay takes more or less time than the engine by more than
# this share.
MAX_OVERHEAD_PCT = 25.0

END_TO_END = (
    ("setup_s", "s"),
    ("syntheses_per_s", "1/s"),
    ("synth_p50_ms", "ms"),
    ("synth_tail_ms", "ms"),
    ("alloc_mw_per_synth", "Mw"),
    ("peak_heap_mb", "MB"),
    ("proposed_area_ge", "GE"),
    ("proposed_delay", "gate-delay"),
)

PER_LAYER = (
    ("represent.build_ms", "ms"),
    ("represent.build_mw", "Mw"),
    ("represent.reps", "count"),
    ("blocks.discover_ms", "ms"),
    ("algdiv.decompose_ms", "ms"),
    ("algdiv.decompose_mw", "Mw"),
    ("horner.rep_ms", "ms"),
    ("factor.squarefree_ms", "ms"),
    ("factor.factorize_ms", "ms"),
    ("finite_ring.canonical_rep_ms", "ms"),
    ("cce.extract_ms", "ms"),
    ("ted.decompose_ms", "ms"),
    ("groebner.rewrite_ms", "ms"),
    ("search.select_ms", "ms"),
    ("search.select_mw", "Mw"),
    ("search.combinations", "count"),
    ("search.us_per_combination", "us"),
    ("search.score_ms", "ms"),
    ("hw.lower_us", "us"),
    ("hw.cost_us", "us"),
    ("hw.power_estimate_us", "us"),
    ("integrated.cce_first_ms", "ms"),
    ("integrated.cubes_first_ms", "ms"),
    ("integrated.refine_ms", "ms"),
    ("integrated.kcm_ms", "ms"),
    ("cse.extract_ms", "ms"),
    ("cse.kernels_ms", "ms"),
    ("baselines.direct_ms", "ms"),
    ("baselines.horner_ms", "ms"),
    ("baselines.factor_cse_ms", "ms"),
    ("equiv.certify_ms", "ms"),
    ("equiv.certify_calls", "count"),
    ("absint.analyze_ms", "ms"),
    ("simplify.run_ms", "ms"),
    ("simplify.cells_eliminated", "count"),
    ("engine.memo_hit_ratio", "ratio"),
    ("kernel.memo_hit_ratio", "ratio"),
    ("extract.flatcost_hit_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
)

# The spans ocaml/replay.ml records.
SPANS = (
    "represent.build", "search.select", "integrated.cce_first",
    "integrated.cubes_first", "integrated.refine", "integrated.kcm",
    "search.score", "baselines.direct", "baselines.horner",
    "baselines.factor_cse", "equiv.certify", "absint.analyze", "simplify.run",
    "blocks.discover", "horner.rep", "factor.squarefree", "factor.factorize",
    "finite_ring.canonical_rep", "cce.extract", "algdiv.decompose",
    "ted.decompose", "groebner.rewrite", "cse.kernels", "cse.extract",
    "hw.lower", "hw.cost", "hw.power_estimate",
)

# Tail percentiles, nearest rank, in tenths of a percent.
TAIL_LADDER = (500, 900, 990, 999)
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark could not produce a result."""


def passes(workload, seconds, trace):
    """How many timed passes each process of a run of the workload makes.
    A traced run replays every request after timing it, which more than
    doubles its time, so it makes half as many."""
    n = round(seconds / PASS_SECONDS[workload] / PROCESSES)
    return max(1, n // 2 if trace else n)


def tail(samples):
    """(value, percentile, samples beyond it) at the highest ladder
    percentile with at least TAIL_BEYOND samples above it.  Below
    2 * TAIL_BEYOND samples none qualifies: the maximum, percentile 100."""
    xs = sorted(samples)
    n = len(xs)
    best = None
    for p in TAIL_LADDER:
        rank = -(-p * n // 1000)
        if n - rank >= TAIL_BEYOND:
            best = (xs[rank - 1], p / 10, n - rank)
    return best or (xs[-1], 100.0, 0)


# ---- build ----------------------------------------------------------------

def _dune():
    """The dune executable and an environment it builds in."""
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(BUILD_DIR, "cache"))
    dune = shutil.which("dune")
    if dune is None:
        found = sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
        if not found:
            raise BenchError("dune is not on PATH")
        dune = found[-1]
        env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    return dune, env


def _mirror(src, dst):
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)


def build():
    """Build the program in the workspace from lib/ and perfbench/ocaml/."""
    lib = os.path.join(ROOT, "lib")
    if not os.path.isdir(lib):
        raise BenchError("no lib/ beside perfbench/: "
                         "run from the root of a polysynth checkout")
    os.makedirs(WORKSPACE, exist_ok=True)
    project = os.path.join(WORKSPACE, "dune-project")
    if not os.path.exists(project):
        with open(project, "w") as f:
            f.write("(lang dune 3.0)\n")
    _mirror(lib, os.path.join(WORKSPACE, "lib"))
    _mirror(os.path.join(HERE, "ocaml"), os.path.join(WORKSPACE, "bench"))
    dune, env = _dune()
    try:
        proc = subprocess.run(
            [dune, "build", "--root", ".", "--profile", "release",
             "./bench/main.exe"],
            cwd=WORKSPACE, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"the build took more than {BUILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError("the build failed:\n" + proc.stdout)


def run_program(workload, seed, seconds, trace):
    """The raw measurements each process of the run prints."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    raws = []
    for i in range(TRACE_PROCESSES if trace else PROCESSES):
        cmd = [PROGRAM, "--workload", workload,
               "--seed", str(PROCESSES * seed + i), "--setups", str(SETUPS),
               "--passes", str(passes(workload, seconds, trace)),
               "--trace", str(trace)]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload}: no result within "
                             f"{RUN_TIMEOUT_S} s")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{workload}: the program exited with code "
                             f"{proc.returncode}\n{proc.stderr}")
        raws.append(json.loads(lines[-1]))
    return raws


# ---- checks ---------------------------------------------------------------

def load_expected():
    with open(os.path.join(HERE, "expected.json")) as f:
        return json.load(f)


def reference_mismatch(req, expected):
    """Why a Min_area request's Proposed result misses its reference."""
    if req["kind"] != "compare":
        return None
    system = req["system"]
    counts = expected["proposed_mult_add"].get(system)
    if counts is not None and [req["mults"], req["adds"]] != counts:
        return (f"proposed {req['mults']} MULT / {req['adds']} ADD, "
                f"expected {counts[0]} / {counts[1]}")
    area = expected["proposed_area_ge"].get(system)
    if area is not None and req["area"] != area:
        return f"proposed area {req['area']} GE, expected {area}"
    return None


def failures(raws, expected):
    """One line per failed request."""
    out = []
    for i, raw in enumerate(raws):
        for req in raw["requests"]:
            reason = req["error"] or reference_mismatch(req, expected)
            if reason:
                out.append(f"process {i} pass {req['pass']} {req['system']} "
                           f"{req['kind']}: {reason}")
    return out


def proposed(raws):
    """Per request of a pass, in a fixed order: the set of (Proposed area,
    Proposed delay) pairs it got over the passes and processes."""
    results = {}
    for raw in raws:
        for req in raw["requests"]:
            results.setdefault((req["system"], req["kind"]), set()).add(
                (req["area"], req["delay"]))
    return [results[key] for key in sorted(results)]


def pass_misses(raws):
    """Representation-memo misses in each pass of each process."""
    misses = {}
    for i, raw in enumerate(raws):
        for req in raw["requests"]:
            key = (i, req["pass"])
            misses[key] = misses.get(key, 0) + req["memo_misses"]
    return list(misses.values())


# ---- estimates --------------------------------------------------------------

def host_factor(raw):
    """Reference calibration time over the process's median calibration
    time: what every time the process measured is multiplied by."""
    calibs = [r["calib_ns"] for r in raw["requests"]]
    return REF_CALIB_NS / statistics.median(calibs)


def per_request(raws, field):
    """Per request of a pass, in any order: the median over the processes
    of the least value of the field over the process's passes, at
    reference speed.  The program is deterministic at parallelism 1, so a
    request that took longer in one pass than in another was slowed by the
    host, not by its own work."""
    values = {}
    for raw in raws:
        best = {}
        for req in raw["requests"]:
            key = (req["system"], req["kind"])
            best[key] = min(best.get(key, req[field]), req[field])
        factor = host_factor(raw)
        for key, v in best.items():
            values.setdefault(key, []).append(v * factor)
    return [statistics.median(vs) for vs in values.values()]


def replay_split(raws):
    """(coverage %, overhead %) of the traced replay against the engine,
    summed over the requests of a pass."""
    engine = sum(per_request(raws, "ns"))
    flow = sum(per_request(raws, "flow_ns"))
    replay = sum(per_request(raws, "replay_ns"))
    return 100 * flow / engine, 100 * (replay - engine) / engine


def run_problems(raws, trace):
    """Checks on the run as a whole."""
    problems = []
    if any(len(results) > 1 for results in proposed(raws)):
        problems.append("Proposed area or delay differ between passes or "
                        "processes")
    if not raws[0]["clear_each"]:
        worst = max(pass_misses(raws))
        if worst > 1:
            problems.append(f"the warm memo missed {worst} times in a pass")
    if trace:
        missing = [s for s in SPANS
                   if any(s not in raw["trace"]["spans"] for raw in raws)]
        if missing:
            problems.append("spans never recorded: " + ", ".join(missing))
        coverage, overhead = replay_split(raws)
        if coverage < MIN_COVERAGE_PCT:
            problems.append(f"the replay's flow spans cover {coverage:.1f} % "
                            "of the engine's time")
        if abs(overhead) > MAX_OVERHEAD_PCT:
            problems.append(f"the replay takes {overhead:+.1f} % of the "
                            "engine's time")
    return problems


# ---- metrics --------------------------------------------------------------

def latencies_ms(raws):
    """The latency of each request of a pass."""
    return [ns / 1e6 for ns in per_request(raws, "ns")]


def end_to_end(raws):
    reqs = [r for raw in raws for r in raw["requests"]]
    latency_ms = latencies_ms(raws)
    results = [min(r) for r in proposed(raws)]
    return {
        "setup_s": statistics.median(s * host_factor(raw) for raw in raws
                                     for s in raw["setup_s"]),
        "syntheses_per_s": len(latency_ms) / (sum(latency_ms) / 1e3),
        "synth_p50_ms": statistics.median(latency_ms),
        "synth_tail_ms": tail(latency_ms)[0],
        "alloc_mw_per_synth": sum(r["words"] for r in reqs) / 1e6 / len(reqs),
        # the mean: over five request orders it moves less than the median
        "peak_heap_mb": statistics.mean(raw["peak_heap_mb"] for raw in raws),
        "proposed_area_ge": sum(area for area, _ in results),
        "proposed_delay": sum(delay for _, delay in results),
    }


_NO_SPAN = {"calls": 0, "ns": 0.0, "flow_ns": 0.0, "words": 0.0}
_COUNTS = ("requests", "reps", "combinations", "certify_calls",
           "cells_eliminated")


def merged_trace(raws):
    """The traces of the processes summed, span times at reference speed."""
    t = {key: 0 for key in _COUNTS}
    t["cache"], t["spans"] = {}, {}
    for raw in raws:
        factor = host_factor(raw)
        for key in _COUNTS:
            t[key] += raw["trace"][key]
        for table, (hits, misses) in raw["trace"]["cache"].items():
            h, m = t["cache"].get(table, (0, 0))
            t["cache"][table] = (h + hits, m + misses)
        for name, s in raw["trace"]["spans"].items():
            acc = t["spans"].setdefault(name, dict(_NO_SPAN))
            acc["calls"] += s["calls"]
            acc["ns"] += s["ns"] * factor
            acc["flow_ns"] += s["flow_ns"] * factor
            acc["words"] += s["words"]
    return t


def per_layer(raws):
    t = merged_trace(raws)
    n = t["requests"]
    spans = t["spans"]

    def span(name):
        return spans.get(name, _NO_SPAN)

    def ms(name):
        return span(name)["ns"] / 1e6 / n

    def mw(name):
        return span(name)["words"] / 1e6 / n

    def us_per_call(name):
        return span(name)["ns"] / 1e3 / max(span(name)["calls"], 1)

    def hit_ratio(table):
        hits, misses = t["cache"].get(table, (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0

    coverage, overhead = replay_split(raws)
    return {
        "represent.build_ms": ms("represent.build"),
        "represent.build_mw": mw("represent.build"),
        "represent.reps": t["reps"] / n,
        "blocks.discover_ms": ms("blocks.discover"),
        "algdiv.decompose_ms": ms("algdiv.decompose"),
        "algdiv.decompose_mw": mw("algdiv.decompose"),
        "horner.rep_ms": ms("horner.rep"),
        "factor.squarefree_ms": ms("factor.squarefree"),
        "factor.factorize_ms": ms("factor.factorize"),
        "finite_ring.canonical_rep_ms": ms("finite_ring.canonical_rep"),
        "cce.extract_ms": ms("cce.extract"),
        "ted.decompose_ms": ms("ted.decompose"),
        "groebner.rewrite_ms": ms("groebner.rewrite"),
        "search.select_ms": ms("search.select"),
        "search.select_mw": mw("search.select"),
        "search.combinations": t["combinations"] / n,
        "search.us_per_combination": span("search.select")["ns"] / 1e3
            / max(t["combinations"], 1),
        "search.score_ms": ms("search.score"),
        "hw.lower_us": us_per_call("hw.lower"),
        "hw.cost_us": us_per_call("hw.cost"),
        "hw.power_estimate_us": us_per_call("hw.power_estimate"),
        "integrated.cce_first_ms": ms("integrated.cce_first"),
        "integrated.cubes_first_ms": ms("integrated.cubes_first"),
        "integrated.refine_ms": ms("integrated.refine"),
        "integrated.kcm_ms": ms("integrated.kcm"),
        "cse.extract_ms": ms("cse.extract"),
        "cse.kernels_ms": ms("cse.kernels"),
        "baselines.direct_ms": ms("baselines.direct"),
        "baselines.horner_ms": ms("baselines.horner"),
        "baselines.factor_cse_ms": ms("baselines.factor_cse"),
        "equiv.certify_ms": ms("equiv.certify"),
        "equiv.certify_calls": t["certify_calls"] / n,
        "absint.analyze_ms": ms("absint.analyze"),
        "simplify.run_ms": ms("simplify.run"),
        "simplify.cells_eliminated": t["cells_eliminated"] / n,
        "engine.memo_hit_ratio": hit_ratio("representation"),
        "kernel.memo_hit_ratio": hit_ratio("kernel"),
        "extract.flatcost_hit_ratio": hit_ratio("flat-cost"),
        "trace.overhead_pct": overhead,
        "trace.coverage_pct": coverage,
    }


def summarize(raws, trace, expected):
    """The result object and the summary lines of one run."""
    failed = failures(raws, expected)
    problems = run_problems(raws, trace)
    attempted = sum(len(raw["requests"]) for raw in raws)
    spec = PER_LAYER if trace else END_TO_END
    values = per_layer(raws) if trace else end_to_end(raws)
    result = {
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in spec},
    }
    first = raws[0]
    seeds = f"{raws[0]['seed']}-{raws[-1]['seed']}"
    lines = [f"{first['workload']} process seeds {seeds}: {attempted} requests "
             f"in {len(raws)} processes of {first['passes']} passes, "
             f"{len(failed)} failed "
             f"(failed_ratio {len(failed) / attempted:.4f})"]
    lines += [f"  {name:30} {m['value']:>14.6g} {m['unit']}"
              for name, m in result["metrics"].items()]
    if trace:
        flow = sorted(((s["flow_ns"], name)
                       for name, s in merged_trace(raws)["spans"].items()),
                      reverse=True)
        total = sum(ns for ns, _ in flow) or 1
        lines.append("  largest flow spans: " + ", ".join(
            f"{name} {100 * ns / total:.1f}%" for ns, name in flow[:3]))
    else:
        latency_ms = latencies_ms(raws)
        _, p, beyond = tail(latency_ms)
        lines.append(f"  synth_tail_ms is p{p:g} of the {len(latency_ms)} "
                     f"requests of a pass (each the median over "
                     f"{len(raws)} processes of the best of "
                     f"{first['passes']} passes): {beyond} lie beyond it")
    calib_ms = ", ".join(f"{REF_CALIB_NS / host_factor(raw) / 1e6:.3f}"
                         for raw in raws)
    cpu_s = sum(r["ns"] for raw in raws for r in raw["requests"]) / 1e9
    lines.append(f"  host: median calibration per process {calib_ms} ms, "
                 f"{REF_CALIB_NS / 1e6:.3f} ms at reference speed; request "
                 f"CPU time as measured {cpu_s:.3f} s")
    lines += [f"  FAILED {line}" for line in failed[:20]]
    lines += [f"  PROBLEM {line}" for line in problems]
    return result, lines


def measure(workload, seed, seconds, trace):
    """Run the built program once: (result, summary lines)."""
    raws = run_program(workload, seed, seconds, trace)
    return summarize(raws, trace, load_expected())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        build()
        result, lines = measure(args.workload, args.seed, args.seconds,
                                args.trace)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
