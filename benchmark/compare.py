#!/usr/bin/env python3
"""Compare two results.json files written by run.py (see README.md).

  python3 benchmark/compare.py BASE.json NEW.json

One row per (end-to-end metric, workload), judged with the bounds in
BENCHMARK.json:
  unresolved  the spread (q3 - q1, as a share of the median) of either side
              is wider than the bound, and not every new run beats every
              base run
  regressed   the new median is worse than the base median by more than
              the bound
  improved    at least nine tenths of all (new, base) run pairs favour the
              new side and the medians differ by more than the base spread
  unchanged   otherwise
failed_frac rises count as regressions. A changed digest or simulated
metric is a model change: fine for a change to the model, never for a
change that claims only speed. Exits 1 on any regression.
"""
import json
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent /
                   "BENCHMARK.json").read_text())


def judge(base, new, bound, better):
    """Status and relative change (positive = worse) of one row."""
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (new["median"] - base["median"]) / base["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (base, new))
    pairs = [(n, b) for n in new["values"] for b in base["values"]]
    wins = sum(sign * (n - b) < 0 for n, b in pairs)
    if spread > bound and wins < len(pairs):
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    base_spread = base["q3"] - base["q1"]
    if (wins >= 0.9 * len(pairs) and
            sign * (base["median"] - new["median"]) > base_spread):
        return "improved", worse
    return "unchanged", worse


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = (json.loads(Path(p).read_text())["workloads"]
                 for p in sys.argv[1:])
    counts, model_changes = {}, []
    print(f"{'workload':<20} {'metric':<12} {'base':>11} {'new':>11} "
          f"{'change':>8} {'bound':>6}  status")
    for w in [w["name"] for w in SPEC["workloads"]]:
        if w not in base or w not in new:
            print(f"{w:<20} missing from {'base' if w not in base else 'new'}")
            counts["missing"] = counts.get("missing", 0) + 1
            continue
        b, n = base[w], new[w]
        for m in SPEC["end_to_end"]:
            bm, nm = b["metrics"][m["name"]], n["metrics"][m["name"]]
            status, worse = judge(bm, nm, m["bound"], m["better"])
            counts[status] = counts.get(status, 0) + 1
            print(f"{w:<20} {m['name']:<12} {bm['median']:>11.5g} "
                  f"{nm['median']:>11.5g} {100 * worse:>+7.2f}% "
                  f"{m['bound']:>6}  {status}")
        ff = ("regressed" if n["failed_frac"] > b["failed_frac"]
              else "unchanged")
        counts[ff] = counts.get(ff, 0) + 1
        print(f"{w:<20} {'failed_frac':<12} {b['failed_frac']:>11.4g} "
              f"{n['failed_frac']:>11.4g} {'':>8} {'0':>6}  {ff}")
        if b["digest"] != n["digest"]:
            model_changes.append(f"{w}: digest {b['digest']} -> {n['digest']}")
        for k in sorted(set(b["simulated"]) | set(n["simulated"])):
            if b["simulated"].get(k) != n["simulated"].get(k):
                model_changes.append(f"{w}: {k} {b['simulated'].get(k)} -> "
                                     f"{n['simulated'].get(k)}")
    print("\n" + ", ".join(f"{v} {k}" for k, v in sorted(counts.items())))
    for c in model_changes:
        print(f"MODEL CHANGE {c}")
    if not model_changes:
        print("simulated metrics and digests identical")
    return 1 if counts.get("regressed") or counts.get("missing") else 0


if __name__ == "__main__":
    sys.exit(main())
