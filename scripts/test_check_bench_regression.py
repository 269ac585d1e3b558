#!/usr/bin/env python3
"""Unit tests for check_bench_regression.py on synthetic bench JSON.

Run directly (python3 scripts/test_check_bench_regression.py) or via
CTest (test_check_bench_regression, label unit).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "check_bench_regression.py")


def metric(value, better="higher", unit="1/s", rsd=None):
    m = {"value": value, "unit": unit, "better": better}
    if rsd is not None:
        m["rsd"] = rsd
        m["runs"] = 3
    return m


def row(name, metrics, **params):
    return {"name": name, "params": params, "metrics": metrics}


def doc(rows, tier="avx512", parity_ok=True):
    return {"bench": "bench_synthetic", "mode": "smoke", "simd_tier": tier,
            "cpu_features": "synthetic", "parity_ok": parity_ok,
            "results": rows}


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, content):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            json.dump(content, f)
        return path

    def run_checker(self, *args):
        return subprocess.run([sys.executable, CHECKER, *args],
                              capture_output=True, text=True)

    def compare(self, current, baseline):
        return self.run_checker(self.write("cur.json", current), "--baseline",
                                self.write("base.json", baseline))

    def test_strict_drop_in_higher_is_better_fails(self):
        base = doc([row("serve", {"req_per_s": metric(100, rsd=0.01)},
                        requests=8, workers=1)])
        cur = doc([row("serve", {"req_per_s": metric(60)},
                       requests=8, workers=1)])
        out = self.compare(cur, base)
        self.assertEqual(out.returncode, 1, out.stdout)
        self.assertIn("FAIL: serve (requests=8, workers=1) req_per_s",
                      out.stdout)

    def test_strict_rise_in_lower_is_better_fails(self):
        base = doc([row("serve", {"p50_ms": metric(10, "lower", "ms", 0.02)},
                        requests=8)])
        cur = doc([row("serve", {"p50_ms": metric(14, "lower", "ms")},
                       requests=8)])
        out = self.compare(cur, base)
        self.assertEqual(out.returncode, 1, out.stdout)
        self.assertIn("FAIL: serve (requests=8) p50_ms", out.stdout)

    def test_changes_within_allowance_pass(self):
        base = doc([row("k", {"speedup": metric(2.0, unit="x", rsd=0.01),
                              "p50_ms": metric(10, "lower", "ms", 0.01)},
                        n=4096)])
        cur = doc([row("k", {"speedup": metric(1.7, unit="x"),
                             "p50_ms": metric(12, "lower", "ms")},
                       n=4096)])
        out = self.compare(cur, base)
        self.assertEqual(out.returncode, 0, out.stdout)
        self.assertIn("within tolerance", out.stdout)

    def test_noisy_row_warns_and_exits_zero(self):
        base = doc([row("openloop", {"goodput_per_s": metric(100, rsd=0.1)},
                        overload=3),
                    row("unknown", {"req_per_s": metric(100)}, workers=2)])
        cur = doc([row("openloop", {"goodput_per_s": metric(10)},
                       overload=3),
                   row("unknown", {"req_per_s": metric(10)}, workers=2)])
        out = self.compare(cur, base)
        self.assertEqual(out.returncode, 0, out.stdout)
        self.assertIn("WARN: openloop (overload=3) goodput_per_s", out.stdout)
        self.assertIn("WARN: unknown (workers=2) req_per_s", out.stdout)
        self.assertNotIn("FAIL", out.stdout)

    def test_parity_failure_fails(self):
        rows = [row("k", {"speedup": metric(2.0, unit="x", rsd=0.01)}, n=1)]
        out = self.compare(doc(rows, parity_ok=False), doc(rows))
        self.assertEqual(out.returncode, 1, out.stdout)
        self.assertIn("FAIL: current run reports parity_ok=false",
                      out.stdout)

    def test_simd_rows_skipped_when_tier_differs(self):
        base = doc([row("simd_ntt", {"speedup": metric(3.0, unit="x",
                                                       rsd=0.01)}, n=4096),
                    row("ntt", {"speedup": metric(3.0, unit="x", rsd=0.01)},
                        n=4096)], tier="avx512")
        cur = doc([row("simd_ntt", {"speedup": metric(1.0, unit="x")},
                       n=4096),
                   row("ntt", {"speedup": metric(3.0, unit="x")}, n=4096)],
                  tier="avx2")
        out = self.compare(cur, base)
        self.assertEqual(out.returncode, 0, out.stdout)
        self.assertIn("skipping simd_* comparisons", out.stdout)
        self.assertNotIn("simd_ntt (n=4096) speedup", out.stdout)
        # The same drop at the same tier is a failure.
        out = self.compare(doc(cur["results"], tier="avx512"), base)
        self.assertEqual(out.returncode, 1, out.stdout)
        self.assertIn("FAIL: simd_ntt (n=4096) speedup", out.stdout)

    def test_missing_baseline_exits_zero_with_note(self):
        cur = self.write("cur.json", doc([]))
        out = self.run_checker(cur, "--baseline",
                               os.path.join(self.tmp.name, "absent.json"))
        self.assertEqual(out.returncode, 0, out.stdout)
        self.assertIn("no baseline at", out.stdout)

    def test_characterize_writes_mean_and_rsd_per_metric(self):
        runs = []
        for i, (rps, p50) in enumerate([(90, 9), (100, 10), (110, 11)]):
            runs.append(self.write(f"run{i}.json", doc([row(
                "serve", {"req_per_s": metric(rps),
                          "p50_ms": metric(p50, "lower", "ms")},
                requests=32, workers=1)])))
        out_path = os.path.join(self.tmp.name, "baseline.json")
        out = self.run_checker("--characterize", out_path, *runs)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        with open(out_path) as f:
            base = json.load(f)
        self.assertEqual(sorted(base), [
            "bench", "characterized_from", "cpu_features", "mode",
            "parity_ok", "results", "simd_tier"])
        self.assertEqual(base["characterized_from"], 3)
        [r] = base["results"]
        self.assertEqual(r["params"], {"requests": 32, "workers": 1})
        rps, p50 = r["metrics"]["req_per_s"], r["metrics"]["p50_ms"]
        self.assertAlmostEqual(rps["value"], 100)
        self.assertAlmostEqual(rps["rsd"], 0.1)
        self.assertEqual((rps["runs"], rps["better"]), (3, "higher"))
        self.assertAlmostEqual(p50["value"], 10)
        self.assertAlmostEqual(p50["rsd"], 0.1)
        self.assertEqual((p50["unit"], p50["better"]), ("ms", "lower"))

    def test_only_baseline_and_characterize_are_accepted(self):
        cur = self.write("cur.json", doc([]))
        for flag in (["--tolerance", "0.5"], ["--strict"]):
            out = self.run_checker(cur, "--baseline", cur, *flag)
            self.assertEqual(out.returncode, 2, flag)
        self.assertEqual(self.run_checker(cur).returncode, 2)


if __name__ == "__main__":
    unittest.main()
