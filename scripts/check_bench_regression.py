#!/usr/bin/env python3
"""Compare a bench --json run against a committed baseline.

Regression tracker for every bench emitting the shared JSON schema
(bench_micro_kernels, bench_serving, bench_scheduler, bench_sharding).
Rows are keyed (name, n, limbs) and compared on `speedup` (always the
headline metric, higher = better).

Noise-aware strictness: baseline rows may carry an `rsd` field — the
relative standard deviation of `speedup` over repeated runs, written
by --characterize below. Rows whose rsd is at or below --strict-rsd
are low-variance: a drop beyond the allowed tolerance on them FAILS
the check (exit 1) even without --strict, because on a row that
reproducible a big drop is a regression, not runner noise. Rows with
high rsd (or no rsd at all — e.g. a stale baseline) stay warn-only
unless --strict escalates everything. The allowed drop per row is
max(--tolerance, --rsd-mult * rsd): noisy rows automatically get the
headroom their own measured variance says they need.

SIMD rows are ISA-gated: the JSON records which kernel-table tier the
simd engine dispatched (and the host's CPU feature list), and simd_*
entries are only compared when the current run and the baseline used
the same tier — an avx512 baseline says nothing about an avx2 or
scalar-fallback runner, so those rows are skipped with a note instead
of producing bogus warnings.

Machine-class baselines: every run stamps a `machine_class` (the
dispatched kernel-table tier: scalar / avx2 / avx512 / avx512ifma). Before comparing, the checker looks for a class-specific
baseline at
    dirname(--baseline)/<machine_class>/basename(--baseline)
and uses it when present, so each machine class is compared
like-for-like against numbers measured on its own class. When no
class directory exists the flat --baseline path is the fallback —
exactly the pre-class behaviour. Seed a class directory by
characterizing on a machine of that class:
    scripts/check_bench_regression.py --characterize \
        bench/baselines/avx2/bench_serving.json run1.json run2.json

Usage (compare):
    scripts/check_bench_regression.py CURRENT.json \
        [--baseline bench/baselines/bench_micro_kernels.json] \
        [--tolerance 0.25] [--strict-rsd 0.05] [--rsd-mult 5.0] \
        [--strict]

Usage (characterize — refresh a baseline from repeated runs):
    for i in 1 2 3; do ./build/bench_serving --json run$i.json; done
    scripts/check_bench_regression.py --characterize \
        bench/baselines/bench_serving.json run1.json run2.json run3.json

Characterize writes the baseline with per-row mean metrics plus the
measured rsd, taking the header metadata (simd tier, CPU features)
from the first run. Commit the output; the compare mode's selective
strictness keys off it.
"""

import argparse
import json
import math
import os
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    results = {}
    for r in doc.get("results", []):
        key = (r["name"], r["n"], r["limbs"])
        results[key] = r
    return doc, results


def characterize(out_path, run_paths):
    """Merge repeated runs into a baseline with per-row rsd."""
    docs = [load(p) for p in run_paths]
    head = docs[0][0]
    bench = head.get("bench", "?")
    for doc, _ in docs[1:]:
        if doc.get("bench") != bench:
            print(
                f"error: mixing benches ({doc.get('bench')} vs {bench})",
                file=sys.stderr,
            )
            return 1
        if doc.get("simd_tier") != head.get("simd_tier"):
            print(
                "error: runs dispatched different simd tiers "
                f"({doc.get('simd_tier')} vs {head.get('simd_tier')}); "
                "characterize on one machine",
                file=sys.stderr,
            )
            return 1

    merged = []
    for key, first in docs[0][1].items():
        speedups, base_ms, opt_ms = [], [], []
        for _, results in docs:
            r = results.get(key)
            if r is None:
                continue
            speedups.append(r["speedup"])
            base_ms.append(r["baseline_ms"])
            opt_ms.append(r["optimized_ms"])
        mean = sum(speedups) / len(speedups)
        if len(speedups) > 1 and mean > 0:
            var = sum((s - mean) ** 2 for s in speedups) / (
                len(speedups) - 1
            )
            rsd = math.sqrt(var) / mean
        else:
            rsd = 0.0
        merged.append(
            {
                "name": key[0],
                "n": key[1],
                "limbs": key[2],
                "baseline_ms": round(sum(base_ms) / len(base_ms), 6),
                "optimized_ms": round(sum(opt_ms) / len(opt_ms), 6),
                "speedup": round(mean, 3),
                "rsd": round(rsd, 4),
                "runs": len(speedups),
            }
        )

    out = {
        "bench": bench,
        "mode": head.get("mode", "full"),
        "machine_class": head.get(
            "machine_class", head.get("simd_tier", "scalar")
        ),
        "simd_tier": head.get("simd_tier", "scalar"),
        "cpu_features": head.get("cpu_features", ""),
        "parity_ok": all(d.get("parity_ok", True) for d, _ in docs),
        "characterized_from": len(run_paths),
        "results": merged,
    }
    with open(out_path, "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")
    worst = max((r["rsd"] for r in merged), default=0.0)
    print(
        f"characterized {bench}: {len(merged)} rows from "
        f"{len(run_paths)} run(s), worst rsd {worst:.1%} -> {out_path}"
    )
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "json",
        nargs="+",
        help="compare: CURRENT.json; characterize: RUN.json ...",
    )
    ap.add_argument(
        "--baseline",
        default="bench/baselines/bench_micro_kernels.json",
        help="committed baseline JSON (default: %(default)s)",
    )
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="minimum allowed relative speedup drop before flagging "
        "(default: %(default)s)",
    )
    ap.add_argument(
        "--strict-rsd",
        type=float,
        default=0.05,
        help="baseline rows with rsd at or below this are enforced "
        "(regressions on them exit nonzero; default: %(default)s)",
    )
    ap.add_argument(
        "--rsd-mult",
        type=float,
        default=5.0,
        help="per-row allowed drop = max(--tolerance, this * rsd) "
        "(default: %(default)s)",
    )
    ap.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero on any warning, not just low-variance rows",
    )
    ap.add_argument(
        "--characterize",
        metavar="OUT",
        help="write baseline OUT from the repeated runs given as "
        "positional arguments (with per-row rsd), instead of comparing",
    )
    args = ap.parse_args()

    if args.characterize:
        return characterize(args.characterize, args.json)
    if len(args.json) != 1:
        ap.error("compare mode takes exactly one CURRENT.json")

    cur_doc, cur = load(args.json[0])

    # Like-for-like baseline resolution: prefer the current machine
    # class's own baseline directory, fall back to the flat path.
    machine_class = cur_doc.get(
        "machine_class", cur_doc.get("simd_tier", "scalar")
    )
    baseline_path = args.baseline
    class_path = os.path.join(
        os.path.dirname(args.baseline),
        machine_class,
        os.path.basename(args.baseline),
    )
    if os.path.exists(class_path):
        baseline_path = class_path
        print(f"using machine-class baseline {baseline_path}")
    try:
        base_doc, base = load(baseline_path)
    except FileNotFoundError:
        print(f"no baseline at {baseline_path}; nothing to compare")
        return 0

    warnings = []  # escalated only by --strict
    errors = []  # low-variance rows: always fatal
    if not cur_doc.get("parity_ok", True):
        errors.append("current run reports parity_ok=false")

    # simd_* rows are only comparable between runs that dispatched the
    # same vector ISA tier.
    cur_tier = cur_doc.get("simd_tier", "scalar")
    base_tier = base_doc.get("simd_tier", "scalar")
    tier_mismatch = cur_tier != base_tier
    if tier_mismatch:
        print(
            f"note: simd tier differs (current={cur_tier}, "
            f"baseline={base_tier}"
            f"; features: current='{cur_doc.get('cpu_features', '?')}'"
            f", baseline='{base_doc.get('cpu_features', '?')}')"
            "; skipping simd_* comparisons"
        )

    for key, b in sorted(base.items()):
        name = f"{key[0]} (N={key[1]}, limbs={key[2]})"
        if tier_mismatch and key[0].startswith("simd_"):
            continue
        c = cur.get(key)
        if c is None:
            # Smoke mode measures a subset of the full baseline grid;
            # only report kernels missing entirely.
            if not any(k[0] == key[0] for k in cur):
                warnings.append(f"{name}: missing from current run")
            continue
        if b["speedup"] <= 0:
            continue
        rsd = b.get("rsd")
        allowed = args.tolerance
        if rsd is not None:
            allowed = max(allowed, args.rsd_mult * rsd)
        drop = 1.0 - c["speedup"] / b["speedup"]
        if drop > allowed:
            msg = (
                f"{name}: speedup {c['speedup']:.2f}x vs baseline "
                f"{b['speedup']:.2f}x ({drop:.0%} drop, "
                f"allowed {allowed:.0%}"
                + (f", rsd {rsd:.1%}" if rsd is not None else "")
                + ")"
            )
            if rsd is not None and rsd <= args.strict_rsd:
                errors.append(msg)
            else:
                warnings.append(msg)
    for key in sorted(set(cur) - set(base)):
        print(f"note: {key[0]} (N={key[1]}, limbs={key[2]}) "
              "not in baseline")

    for e in errors:
        print(f"  FAIL: {e}")
    if warnings:
        print(f"{len(warnings)} bench regression warning(s):")
        for w in warnings:
            print(f"  WARN: {w}")
    if errors:
        print(
            f"{len(errors)} low-variance regression(s): these rows "
            f"reproduce within {args.strict_rsd:.0%}, so the drop is "
            "real — failing"
        )
        return 1
    if warnings:
        if args.strict:
            return 1
        print("(noisy/unknown-variance rows are warn-only; pass "
              "--strict to fail on them)")
    else:
        print("bench results within tolerance of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
