#!/usr/bin/env python3
"""OCTOPOCS verification benchmark: one command for every workload.

    python3 perfbench/run.py --workload corpus --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # BENCHMARK.json's workloads, traced too

Run from the root of a checkout.  It builds the harness with dune, runs
the workload as several fresh harness processes ("segments") that share
the timed seconds, checks every verdict against its annotation, and prints
the metrics: the end-to-end set with --trace 0, the per-layer set with
--trace 1.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Metric names and units come from
BENCHMARK.json; README.md beside this file explains them.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# Every workload the harness runs.  BENCHMARK.json lists the benchmark's
# own; corpus-proc is not among them (README.md says why) but runs on
# request.
WORKLOADS = ["registry", "corpus", "corpus-proc", "scan"]
WORK_DIR = ".perfbench_work"
HISTORY = "BENCH_history.jsonl"
# Fresh processes per run: a transient stall hits one segment, not the run.
SEGMENTS = 5
# Cold starts that only set up, on top of the segments: setup_s is a few
# milliseconds of process start-up on most workloads, so it is the median
# of SEGMENTS + SETUP_ONLY samples.
SETUP_ONLY = 10
# Counters that are exact functions of the seed; every traced segment of a
# run must report the same values.
DETERMINISTIC = [
    "vm.steps", "symex.states_forked", "symex.loop_retries", "solver.nodes",
    "solver.constraint_adds", "taint.bunches", "clone.hits", "clone.confirmed",
    "journal.record_bytes", "core.ladder_rungs",
]


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds the harness from the checkout's sources; returns its path."""
    for need in ("dune-project", "lib", "bin", "BENCHMARK.json"):
        if not os.path.exists(need):
            die(f"run from the root of a checkout: {need} is missing")
    rel = os.path.relpath(HERE, os.getcwd())
    target = os.path.join(".", rel, "harness.exe")
    try:
        # The shared dune cache lives outside the checkout; stay inside it.
        r = subprocess.run(["dune", "build", "--root", ".", target],
                           env=dict(os.environ, DUNE_CACHE="disabled"),
                           capture_output=True, text=True, timeout=900)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"dune build failed: {e}")
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        die("dune build failed")
    return os.path.join("_build", "default", rel, "harness.exe")


def segment(exe, workload, seed, k, seconds, traced, nproc):
    """Segment k: one harness process; returns its parsed sample record."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--segment", str(k),
           "--seconds", repr(seconds), "--trace", "1" if traced else "0",
           "--nproc", str(nproc), "--work-dir", WORK_DIR]
    spawn = time.time()
    cmd += ["--spawn-time", repr(spawn)]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=seconds + 120)
    except subprocess.TimeoutExpired:
        die(f"{workload}: harness timed out")
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        die(f"{workload}: harness exited {r.returncode}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def rank(sorted_vals, q):
    """Nearest-rank quantile, q in (0, 1]."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def percentile(segs, q):
    """The q-quantile of verdict latency.  When every segment settled at
    least 1000 verdicts (10 beyond its p99), the median of the segments'
    own quantiles, so a stall in one segment does not move the run;
    otherwise the quantile of the pooled samples."""
    if min(len(s["lat_ms"]) for s in segs) >= 1000:
        return statistics.median(rank(sorted(s["lat_ms"]), q) for s in segs)
    return rank(sorted(x for s in segs for x in s["lat_ms"]), q)


def end_to_end(segs):
    return {
        "pairs_per_s": statistics.median(len(s["lat_ms"]) / s["timed_s"] for s in segs),
        "verdict_ms_p50": percentile(segs, 0.50),
        "verdict_ms_p99": percentile(segs, 0.99),
        "cpu_ms_per_pair": statistics.median(1000 * s["cpu_s"] / len(s["lat_ms"]) for s in segs),
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in segs),
        "setup_s": statistics.median(s["setup_s"] for s in segs),
    }, sum(len(s["lat_ms"]) for s in segs)


def last_history_line():
    if not os.path.exists(HISTORY):
        return None
    with open(HISTORY) as f:
        lines = [l for l in f if l.strip()]
    return json.loads(lines[-1]) if lines else None


def run_workload(exe, workload, seed, seconds, traced, nproc, problems):
    """Returns (metrics, attempted, failed, verdict count, OCaml version)."""
    if not traced:
        segs = [segment(exe, workload, seed, k, seconds / SEGMENTS, False, nproc)
                for k in range(SEGMENTS)]
        traced_segs = []
        metrics, n = end_to_end(segs)
        setups = [segment(exe, workload, seed, SEGMENTS + k, 0, False, nproc)
                  for k in range(SETUP_ONLY)]
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in segs + setups)
    else:
        # Untraced and traced segments alternate, so drift hits both alike.
        pairs = SEGMENTS // 2 + 1
        segs, traced_segs = [], []
        for k in range(2 * pairs):
            s = segment(exe, workload, seed, k, seconds / (2 * pairs), k % 2 == 1, nproc)
            (traced_segs if k % 2 else segs).append(s)
        untraced_pps = end_to_end(segs)[0]["pairs_per_s"]
        traced, n = end_to_end(traced_segs)
        metrics = {
            "trace.pairs_per_s": traced["pairs_per_s"],
            "trace.overhead_pct":
                100 * (untraced_pps - traced["pairs_per_s"]) / untraced_pps,
            "machine.slowdown": statistics.median(s["slowdown"] for s in traced_segs),
        }
        for key in traced_segs[0]["layers"]:
            metrics[key] = statistics.median(s["layers"][key] for s in traced_segs)
        for key in DETERMINISTIC:
            vals = {s["det"].get(key) for s in traced_segs}
            if len(vals) != 1 or None in vals:
                problems.append(f"{workload}: {key} not identical across traced segments: {vals}")
            metrics[key] = traced_segs[0]["det"].get(key)
        if workload == "registry":
            check_history(traced_segs, problems)
    all_segs = segs + traced_segs
    for s in all_segs:
        problems.extend(f"{workload}: {e}" for e in s["errors"])
    attempted = sum(s["attempted"] for s in all_segs)
    failed = sum(s["failed"] for s in all_segs)
    return metrics, attempted, failed, n, all_segs[0]["ocaml"]


def check_history(traced_segs, problems):
    """Registry per-pair work counters must equal the last history entry."""
    want = last_history_line()
    if want is None:
        problems.append(f"registry: {HISTORY} has no entry to check against")
        return
    for s in traced_segs:
        for key, v in s["pairs"].items():
            if key in want and want[key] != v:
                problems.append(f"registry: {key} = {v}, {HISTORY} says {want[key]}")
        absent = [k for k in want if k.startswith("p") and k[1].isdigit()
                  and not k.endswith("_ms") and k not in s["pairs"]]
        if absent:
            problems.append(f"registry: counters {absent[:4]} not measured")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=42,
                    help="workload seed (default 42; 7919 is held out for claims)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed seconds per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    exe = build()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    os.makedirs(WORK_DIR, exist_ok=True)
    try:
        if args.workload == "all":
            result = run_all(exe, spec, args.seed, seconds, nproc)
        else:
            result = run_one(exe, spec, args.workload, args.seed, seconds,
                             args.trace == 1, nproc)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    print(json.dumps(result))


def report(spec, workload, metrics, traced, n, problems):
    names = spec["per_layer"] if traced else spec["end_to_end"]
    out = {}
    for m in names:
        if m["name"] not in metrics:
            problems.append(f"{workload}: metric {m['name']} not measured")
            continue
        v = metrics[m["name"]]
        out[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"{workload:<12} {m['name']:<24} {v:>14.6g} {m['unit']:<6} (n={n} verdicts)")
    return out


def run_one(exe, spec, workload, seed, seconds, traced, nproc):
    problems = []
    metrics, attempted, failed, n, ocaml = run_workload(
        exe, workload, seed, seconds, traced, nproc, problems)
    print(f"# perfbench workload={workload} seed={seed} seconds={seconds:g} "
          f"trace={int(traced)} segments={SEGMENTS} nproc={nproc} ocaml={ocaml}")
    out = report(spec, workload, metrics, traced, n, problems)
    print(f"{workload:<12} operations attempted={attempted} failed={failed}")
    for p in problems:
        print(f"FAIL {p}")
    return {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": out}


def run_all(exe, spec, seed, seconds, nproc):
    """Every workload of BENCHMARK.json, untraced then traced, with the
    tracing overhead."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in (wl["name"] for wl in spec["workloads"]):
        for traced in (False, True):
            r = run_one(exe, spec, w, seed, seconds, traced, nproc)
            result["correct"] &= r["correct"]
            result["attempted"] += r["attempted"]
            result["failed"] += r["failed"]
            for k, v in r["metrics"].items():
                result["metrics"][f"{w}.{k}"] = v
        print(f"{w:<12} tracing overhead "
              f"{result['metrics'][w + '.trace.overhead_pct']['value']:.2f}% of pairs_per_s")
    return result


if __name__ == "__main__":
    main()
