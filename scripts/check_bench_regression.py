#!/usr/bin/env python3
"""Compare a bench --json run against its committed baseline.

Every gated bench (bench_micro_kernels, bench_scheduler, bench_serving,
bench_sharding) writes the schema of bench/bench_util.h:

    {"bench", "mode", "simd_tier", "cpu_features", "parity_ok",
     "results": [{"name", "params": {KEY: int, ...},
                  "metrics": {KEY: {"value", "unit", "better"}, ...}}]}

Rows are keyed by (name, params). Every metric a baseline row lists is
compared in its `better` direction; metrics the baseline leaves out
are not gated. The loss is 1 - current/baseline for a higher-is-better
metric and 1 - baseline/current for a lower-is-better one, so a rate
and the time per item it implies gate alike.

A loss beyond max(0.25, 5 * rsd) is a regression, rsd being the
metric's relative standard deviation over the runs its baseline was
characterized from (--characterize below). It fails the check (exit 1)
when rsd <= 0.05, because a metric that reproduces that closely has
really moved, and warns otherwise; a metric without an rsd only warns.
A run reporting parity_ok=false fails. simd_* rows are compared only
when the run and the baseline dispatched the same kernel-table tier
(`simd_tier`); otherwise they are skipped with a note. A missing
baseline file is a note, not a failure.

Usage (compare):
    scripts/check_bench_regression.py CURRENT.json --baseline BASE.json

Usage (characterize: write a baseline from repeated runs):
    for i in 1 2 3; do ./build/bench_serving --json run$i.json; done
    scripts/check_bench_regression.py --characterize \\
        bench/baselines/bench_serving.json run1.json run2.json run3.json

Characterize keeps every metric of every row with its mean, rsd and
run count, and takes the header from the first run. Every metric it
writes is gated, so remove the ones that should not be before
committing the file.
"""

import argparse
import json
import math
import sys

TOLERANCE = 0.25  # loss always allowed
RSD_MULT = 5.0  # allowed loss grows with the metric's own noise
STRICT_RSD = 0.05  # metrics at or below this rsd fail instead of warn


def load(path):
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for r in doc.get("results", []):
        key = (r["name"], tuple(sorted(r.get("params", {}).items())))
        rows[key] = r
    return doc, rows


def label(row):
    params = ", ".join(f"{k}={v}" for k, v in row.get("params", {}).items())
    return f"{row['name']} ({params})"


def loss(cur, base, better):
    """Relative worsening of @p cur against @p base (negative = gain)."""
    if better == "higher":
        return 1.0 - cur / base
    return 1.0 - base / cur if cur > 0 else -math.inf


def characterize(out_path, run_paths):
    """Merge repeated runs into a baseline with a per-metric rsd."""
    docs = [load(p) for p in run_paths]
    head = docs[0][0]
    bench = head.get("bench", "?")
    for doc, _ in docs[1:]:
        if doc.get("bench") != bench:
            print(f"error: mixing benches ({doc.get('bench')} vs {bench})",
                  file=sys.stderr)
            return 1
        if doc.get("simd_tier") != head.get("simd_tier"):
            print("error: runs dispatched different simd tiers "
                  f"({doc.get('simd_tier')} vs {head.get('simd_tier')}); "
                  "characterize on one machine", file=sys.stderr)
            return 1

    merged = []
    worst = 0.0
    for key, first in docs[0][1].items():
        metrics = {}
        for mkey, m in first["metrics"].items():
            vals = [rows[key]["metrics"][mkey]["value"]
                    for _, rows in docs
                    if mkey in rows.get(key, {}).get("metrics", {})]
            mean = sum(vals) / len(vals)
            rsd = 0.0
            if len(vals) > 1 and mean != 0:
                var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
                rsd = math.sqrt(var) / abs(mean)
            worst = max(worst, rsd)
            metrics[mkey] = {"value": float(f"{mean:.6g}"),
                             "unit": m["unit"], "better": m["better"],
                             "rsd": round(rsd, 4), "runs": len(vals)}
        merged.append({"name": first["name"],
                       "params": first.get("params", {}),
                       "metrics": metrics})

    out = {
        "bench": bench,
        "mode": head.get("mode", "full"),
        "simd_tier": head.get("simd_tier", "scalar"),
        "cpu_features": head.get("cpu_features", ""),
        "parity_ok": all(d.get("parity_ok", True) for d, _ in docs),
        "characterized_from": len(run_paths),
        "results": merged,
    }
    with open(out_path, "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")
    print(f"characterized {bench}: {len(merged)} rows from "
          f"{len(run_paths)} run(s), worst rsd {worst:.1%} -> {out_path}")
    return 0


def compare(cur_path, baseline_path):
    cur_doc, cur = load(cur_path)
    try:
        base_doc, base = load(baseline_path)
    except FileNotFoundError:
        print(f"no baseline at {baseline_path}; nothing to compare")
        return 0

    warnings, errors = [], []
    if not cur_doc.get("parity_ok", True):
        errors.append("current run reports parity_ok=false")

    cur_tier = cur_doc.get("simd_tier", "scalar")
    base_tier = base_doc.get("simd_tier", "scalar")
    tier_mismatch = cur_tier != base_tier
    if tier_mismatch:
        print(f"note: simd tier differs (current={cur_tier}, "
              f"baseline={base_tier}; features: "
              f"current='{cur_doc.get('cpu_features', '?')}', "
              f"baseline='{base_doc.get('cpu_features', '?')}'); "
              "skipping simd_* comparisons")

    cur_names = {k[0] for k in cur}
    for key, b in sorted(base.items()):
        if tier_mismatch and key[0].startswith("simd_"):
            continue
        c = cur.get(key)
        if c is None:
            # Smoke mode measures a subset of the full baseline grid;
            # only a row family missing entirely is reported.
            if key[0] not in cur_names:
                warnings.append(f"{label(b)}: missing from current run")
            continue
        for mkey, bm in sorted(b["metrics"].items()):
            cm = c["metrics"].get(mkey)
            if cm is None:
                warnings.append(f"{label(b)} {mkey}: missing from "
                                "current run")
                continue
            if bm["value"] <= 0:
                continue
            rsd = bm.get("rsd")
            allowed = TOLERANCE if rsd is None else max(TOLERANCE,
                                                        RSD_MULT * rsd)
            lost = loss(cm["value"], bm["value"], bm["better"])
            if lost <= allowed:
                continue
            unit = bm.get("unit", "")
            msg = (f"{label(b)} {mkey}: {cm['value']:.4g} {unit} vs "
                   f"baseline {bm['value']:.4g} {unit} ({bm['better']} "
                   f"is better; {lost:.0%} loss, allowed {allowed:.0%}"
                   + (f", rsd {rsd:.1%}" if rsd is not None else "") + ")")
            if rsd is not None and rsd <= STRICT_RSD:
                errors.append(msg)
            else:
                warnings.append(msg)
    for key in sorted(set(cur) - set(base)):
        print(f"note: {label(cur[key])} not in baseline")

    for e in errors:
        print(f"  FAIL: {e}")
    if warnings:
        print(f"{len(warnings)} bench regression warning(s):")
        for w in warnings:
            print(f"  WARN: {w}")
    if errors:
        print(f"{len(errors)} failure(s): a parity failure, or a "
              f"metric that reproduces within {STRICT_RSD:.0%} moved "
              "beyond its allowance")
        return 1
    if warnings:
        print("(noisy or unknown-variance metrics only warn)")
    else:
        print("bench results within tolerance of baseline")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("json", nargs="+",
                    help="compare: CURRENT.json; characterize: RUN.json ...")
    ap.add_argument("--baseline", help="committed baseline JSON to compare "
                    "against (required when comparing)")
    ap.add_argument("--characterize", metavar="OUT",
                    help="write baseline OUT from the repeated runs given "
                    "as positional arguments, instead of comparing")
    args = ap.parse_args()

    if args.characterize:
        return characterize(args.characterize, args.json)
    if len(args.json) != 1 or args.baseline is None:
        ap.error("compare mode takes one CURRENT.json and --baseline")
    return compare(args.json[0], args.baseline)


if __name__ == "__main__":
    sys.exit(main())
