#!/usr/bin/env python3
"""Outside-in benchmark of the mesh-NoC simulator (see README.md).

Builds benchmark/CMakeLists.txt into build-bench/ (Release) and runs jobs:
each job is one fresh `noc_e2e --workload W --seed S --seconds T` process
that repeats the workload's batch for about T seconds, checks every
batch's outputs and reports medians as one JSON line.

  One measured run of one workload (the form BENCHMARK.json names):
    python3 benchmark/run.py --workload sat_k16 --seed 3 --seconds 25 --trace 0
  The full benchmark, every workload R times in alternating order:
    python3 benchmark/run.py [--reps 5] [--seed 1]
  One traced pass (per-layer metrics, trace-<workload>.json files):
    python3 benchmark/run.py --trace
  Self-test at tiny windows (never a reported number):
    python3 benchmark/run.py --quick

A measured run prints one JSON object as its last stdout line: correct,
attempted, failed and metrics. The full and traced passes write
benchmark/out/results.json, results-trace.json or results-quick.json.
"""
import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / "build-bench"
EXE = BUILD / "noc_e2e"
OUT = BENCH / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
JOB_TIMEOUT_S = 170
# Self-test jobs: the minimum batch count at tiny windows.
QUICK_SECONDS = 0.1


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then an incremental build of noc_e2e."""
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(BENCH), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release", *gen]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("benchmark: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD), "--target", "noc_e2e", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("benchmark: build failed")


def job(workload, seed, seconds, trace=False, quick=False):
    cmd = [str(EXE), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", str(OUT)]
    cmd += ["--trace"] if trace else []
    cmd += ["--quick"] if quick else []
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                       timeout=JOB_TIMEOUT_S)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"benchmark: {' '.join(cmd)} exited with {p.returncode}")
    return json.loads(lines[-1])


def stats(values):
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "n": len(values), "values": values}


def check_spans(path):
    """Every span's parent exists and encloses it; ids are unique."""
    events = json.loads(Path(path).read_text())["traceEvents"]
    by_id = {e["args"]["id"]: e for e in events}
    errors = [] if len(by_id) == len(events) else [f"{path}: duplicate ids"]
    eps = 1e-3  # microseconds; ts and dur are printed in full
    for e in events:
        if e["args"]["parent"] == -1:
            continue
        parent = by_id.get(e["args"]["parent"])
        if (parent is None or e["ts"] < parent["ts"] - eps or
                e["ts"] + e["dur"] > parent["ts"] + parent["dur"] + eps):
            errors.append(f"{path}: span {e['name']} outside its parent")
    return errors


def summarize(workload, jobs, traced=None):
    """Aggregate one workload's jobs: medians, cross-run checks, failures.
    Each job reports the median over its batches; the statistics here are
    over jobs."""
    every = jobs + ([traced] if traced else [])
    first = every[0]
    cross = []
    if len({j["digest"] for j in every}) > 1:
        cross.append("result digest differs across repetitions")
    if traced:
        cross += check_spans(traced["trace_file"])
    attempted = sum(j["attempted"] for j in every) + len(cross)
    failed = sum(j["failed"] for j in every) + len(cross)
    out = {
        "workload": workload,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "errors": [e for j in every for e in j["errors"]] + cross,
        "digest": first["digest"],
        "simulated": first["simulated"],
        "metrics": {m["name"]: dict(stats([j[m["name"]] for j in jobs]),
                                    unit=m["unit"])
                    for m in SPEC["end_to_end"] if jobs},
        "jobs": every,
    }
    if traced:
        layers = traced["per_layer"]
        out["per_layer"] = {m["name"]: {"value": layers[m["name"]],
                                        "unit": m["unit"]}
                            for m in SPEC["per_layer"] if m["name"] in layers}
        out["layers"] = traced["layers"]
        out["trace_file"] = traced["trace_file"]
    return out


def print_summary(s):
    batches = sum(j["batches"] for j in s["jobs"])
    print(f"\n== {s['workload']}  ({batches} untraced batches in "
          f"{len(s['jobs'])} jobs, digest {s['digest']}, "
          f"failed_frac {s['failed_frac']:.4g} = "
          f"{s['failed']}/{s['attempted']})")
    for name, m in s["metrics"].items():
        print(f"  {name:<14} {m['median']:>12.6g} {m['unit']:<6} "
              f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n {m['n']}")
    for name, v in s["simulated"].items():
        print(f"  sim {name:<34} {v:.6g}")
    for name, m in s.get("per_layer", {}).items():
        print(f"  layer {name:<30} {m['value']:>14.6g} {m['unit']}")
    for name, v in s.get("layers", {}).items():
        print(f"  span {name:<50} {v:.6g} s")
    for e in s["errors"]:
        print(f"  FAILED: {e}")


def provenance(args, reps, summaries):
    commit = "unknown"
    if (ROOT / ".git").exists():
        p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, text=True)
        commit = p.stdout.strip() or commit
    first = summaries[0]["jobs"][0]
    return {"commit": commit, "compiler": first["compiler"],
            "build_type": first["build_type"], "nproc": os.cpu_count(),
            "machine": platform.machine(), "python": platform.python_version(),
            "seed": args.seed, "reps": reps, "seconds": args.seconds,
            "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def measured_run(args):
    """One job of one workload; JSON on the last stdout line."""
    j = job(args.workload, args.seed, args.seconds, trace=bool(args.trace))
    if args.trace:
        s = summarize(args.workload, [], j)
        metrics = s["per_layer"]
    else:
        s = summarize(args.workload, [j])
        metrics = {k: {"value": m["median"], "unit": m["unit"]}
                   for k, m in s["metrics"].items()}
    print_summary(s)
    print(json.dumps({"correct": s["failed"] == 0,
                      "attempted": s["attempted"], "failed": s["failed"],
                      "metrics": metrics}))


def full_pass(args):
    """Every workload: R jobs in alternating order, or one traced job each.
    The self-test runs one short job of each kind."""
    reps = 0 if args.trace else 1 if args.quick else args.reps
    seconds = QUICK_SECONDS if args.quick else args.seconds
    jobs = {w: [] for w in WORKLOADS}
    for r in range(reps):
        for w in (WORKLOADS if r % 2 == 0 else WORKLOADS[::-1]):
            log(f"benchmark: rep {r + 1}/{reps} {w}")
            jobs[w].append(job(w, args.seed, seconds, quick=args.quick))
    traced = {}
    if args.trace or args.quick:
        for w in WORKLOADS:
            log(f"benchmark: traced {w}")
            traced[w] = job(w, args.seed, seconds, trace=True,
                            quick=args.quick)
    summaries = [summarize(w, jobs[w], traced.get(w)) for w in WORKLOADS]
    for s in summaries:
        print_summary(s)
    result = {"provenance": provenance(args, reps, summaries),
              "quick": args.quick,
              "workloads": {s["workload"]: s for s in summaries}}
    name = ("results-quick.json" if args.quick else
            "results-trace.json" if args.trace else "results.json")
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n")
    failed = sum(s["failed"] for s in summaries)
    print(f"\nwrote {OUT / name}; failed ops {failed}")
    if args.quick:
        return self_test(summaries)
    return 0 if failed == 0 else 1


def self_test(summaries):
    """Every declared metric is produced, and nothing failed."""
    problems = []
    for s in summaries:
        for section, got in (("end_to_end", s["metrics"]),
                             ("per_layer", s.get("per_layer", {}))):
            problems += [f"{s['workload']}: {section} metric {m['name']} "
                         "missing" for m in SPEC[section]
                         if m["name"] not in got]
        if s["failed"]:
            problems.append(f"{s['workload']}: failed_frac "
                            f"{s['failed_frac']:.3g}")
    for p in problems:
        print(f"SELF-TEST: {p}")
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one measured run of this workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                    help="each job: about this long")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=[0, 1], help="traced run (per-layer metrics)")
    ap.add_argument("--reps", type=int, default=5,
                    help="full pass: jobs per workload")
    ap.add_argument("--quick", action="store_true",
                    help="self-test at tiny windows")
    args = ap.parse_args()
    build()
    OUT.mkdir(parents=True, exist_ok=True)
    if args.workload:
        measured_run(args)
        return 0
    return full_pass(args)


if __name__ == "__main__":
    sys.exit(main())
