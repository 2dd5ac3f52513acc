#!/usr/bin/env python3
"""Compare a bench_perf_microbench run against the committed baseline.

Usage:
    check_perf_regression.py CURRENT.json BASELINE.json [--threshold 0.10]

Both files use the google-benchmark JSON schema (bench_perf_microbench
always writes one, see bench/perf_microbench.cpp). For every benchmark
present in both files that reports items_per_second, the current value must
be no more than THRESHOLD below the baseline; anything faster, or any
benchmark missing from the baseline (a newly added scenario), passes.

Exit codes (CI distinguishes them): 0 = pass, 1 = regression (or a
benchmark vanished from the current run), 2 = usage error, 3 = the
baseline file is missing/unreadable or holds no usable entries -- refresh
bench/BENCH_perf_baseline.json rather than hunting a phantom regression.

Benchmarks whose name matches --skip (default: the thread-scaling
ParallelSweep rows, meaningless across machines with different core counts)
are ignored.

With --normalize, every current/baseline ratio is divided by the MEDIAN
ratio over the benchmarks common to both files. That cancels the absolute
speed difference between the baseline machine and the current one, so the
gate detects a *scenario* regressing relative to the rest of the suite --
the realistic way a datapath change slips through -- and stays meaningful
when CI runner hardware differs from the machine that recorded the
baseline. The median (unlike a mean) is unmoved when a minority of
benchmarks improves a lot, so a genuinely beneficial PR does not turn
unrelated rows red. (A uniform slowdown across every scenario cancels out
too; catch those by refreshing the baseline on same-class hardware and
running without --normalize.)

The committed baseline (bench/BENCH_perf_baseline.json) should be refreshed
whenever the CI runner hardware class changes or a PR deliberately shifts
the perf envelope: rerun bench_perf_microbench on the target machine and
commit the JSON it writes.
"""

import argparse
import json
import re
import sys


def load_items_per_second(path, skip_re):
    """name -> items_per_second. With --benchmark_repetitions the file holds
    per-repetition rows plus aggregates; the mean aggregate wins, else the
    per-repetition values are averaged. Non-mean aggregates (stddev, median,
    and especially cv, whose items_per_second is a dimensionless ratio that
    would read as a catastrophic regression) are ignored."""
    with open(path) as f:
        data = json.load(f)
    sums, counts, means = {}, {}, {}
    for b in data.get("benchmarks", []):
        name = b.get("run_name", b.get("name", ""))
        ips = b.get("items_per_second")
        if ips is None or skip_re.search(name):
            continue
        # Belt and braces for older google-benchmark versions that tag
        # aggregates only through the name suffix, not run_type.
        if name.endswith(("_cv", "_mean", "_median", "_stddev")):
            continue
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") == "mean":
                means[name] = float(ips)
        else:
            sums[name] = sums.get(name, 0.0) + float(ips)
            counts[name] = counts.get(name, 0) + 1
    out = {name: s / counts[name] for name, s in sums.items()}
    out.update(means)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current")
    ap.add_argument("baseline")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="max allowed fractional regression (default 0.10)")
    ap.add_argument("--skip", default=r"ParallelSweep",
                    help="regex of benchmark names to ignore")
    ap.add_argument("--normalize", action="store_true",
                    help="compare machine-normalized ratios (see module doc)")
    args = ap.parse_args()

    skip_re = re.compile(args.skip)
    try:
        current = load_items_per_second(args.current, skip_re)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read current run {args.current}: {e}")
        return 2
    try:
        baseline = load_items_per_second(args.baseline, skip_re)
    except (OSError, json.JSONDecodeError) as e:
        # Distinct exit code: a lost baseline is a repo/CI plumbing problem,
        # not a perf regression, and the fix (refresh the baseline) differs.
        print(f"error: cannot read baseline {args.baseline}: {e}")
        return 3

    if not current:
        print(f"error: no items_per_second entries in {args.current}")
        return 2
    if not baseline:
        print(f"error: no items_per_second entries in baseline "
              f"{args.baseline}; refresh bench/BENCH_perf_baseline.json "
              f"(docs/PERF.md 'Refreshing the perf baseline')")
        return 3

    if args.normalize:
        common = sorted(n for n in set(current) & set(baseline)
                        if baseline[n] > 0)
        if not common:
            print("error: --normalize needs benchmarks common to both files")
            return 2
        ratios = sorted(current[n] / baseline[n] for n in common)
        mid = len(ratios) // 2
        median = (ratios[mid] if len(ratios) % 2
                  else 0.5 * (ratios[mid - 1] + ratios[mid]))
        # Scale the baseline to this machine's speed: a benchmark now fails
        # only when it lost ground relative to the suite's median ratio.
        for name in baseline:
            baseline[name] *= median
        print(f"(baseline scaled by the median current/baseline ratio "
              f"{median:.3f} over {len(common)} common benchmarks)")

    failures = []
    print(f"{'benchmark':45s} {'baseline':>12s} {'current':>12s} {'ratio':>7s}")
    for name in sorted(current):
        cur = current[name]
        base = baseline.get(name)
        if base is None or base <= 0:
            print(f"{name:45s} {'(new)':>12s} {cur:12.3e}       -")
            continue
        ratio = cur / base
        flag = ""
        if ratio < 1.0 - args.threshold:
            failures.append((name, base, cur, ratio))
            flag = "  <-- REGRESSION"
        print(f"{name:45s} {base:12.3e} {cur:12.3e} {ratio:6.2f}x{flag}")

    missing = sorted(set(baseline) - set(current))
    for name in missing:
        print(f"{name:45s} present in baseline, MISSING from current run")

    status = 0
    if missing:
        # A silently vanished benchmark is exactly how a regression gate
        # stops gating: fail loudly instead of shrugging (and instead of
        # the KeyError a naive current[name] lookup would raise).
        print(f"\nFAIL: {len(missing)} benchmark(s) present in the baseline "
              f"are missing from the current run: {', '.join(missing)}.\n"
              f"If they were deliberately removed or renamed, refresh "
              f"bench/BENCH_perf_baseline.json (see docs/PERF.md "
              f"'Refreshing the perf baseline').")
        status = 1
    if failures:
        print(f"\nFAIL: {len(failures)} benchmark(s) regressed more than "
              f"{args.threshold:.0%} in items_per_second.")
        status = 1
    if status == 0:
        print(f"\nOK: no benchmark regressed more than {args.threshold:.0%}.")
    return status


if __name__ == "__main__":
    sys.exit(main())
