#!/usr/bin/env python3
"""Build the ark library and the arkbench binary from source, then run
one benchmark workload.

    python3 arkbench/run.py --workload boot|serve|wire --seed N \
        --seconds S --trace 0|1
    python3 arkbench/run.py --self-test

Run from the root of a source checkout. The build goes to
$CARGO_TARGET_DIR (default .bench_build) under that root; traced runs
write their spans there too. Every ARK_* variable is removed from the
environment of the benchmark, which pins the program's runtime
switches itself. The last line of standard output is the result JSON;
build output and diagnostics go to standard error. The exit code is
nonzero when the build fails, an output is wrong, or the result does
not list exactly the metrics BENCHMARK.json declares.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_timeout_s(seconds):
    """How long a run may take before it counts as hung: set-up, warm-up
    and probes take well under 100 s, a traced run measures about
    1.25 x --seconds, and 170 s still covers --seconds 30."""
    return max(170.0, 2 * seconds + 100)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d, "arkbench")


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("ARK_")}


def build(env):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "arkbench", "arkbench_selftest",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, env=env).returncode == 0


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_problem(line, trace):
    """Why the result line breaks the output contract, or None."""
    try:
        res = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(res)
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(res["failed"], int) or res["failed"] < 0:
        return "failed must be a whole number"
    want = declared_metrics(trace)
    if set(res["metrics"]) != want:
        return "metrics differ from BENCHMARK.json: %s" % sorted(
            set(res["metrics"]) ^ want)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=["boot", "serve", "wire"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    env = clean_env()
    if not build(env):
        print("arkbench: build failed", file=sys.stderr)
        return 2
    if args.self_test:
        return subprocess.run([os.path.join(build_dir(), "arkbench_selftest")],
                              env=env).returncode

    cmd = [os.path.join(build_dir(), "arkbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    timeout = run_timeout_s(args.seconds)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print("arkbench: run exceeded %g s" % timeout, file=sys.stderr)
        return 3
    lines = proc.stdout.splitlines()
    if not lines:
        print("arkbench: no output", file=sys.stderr)
        return proc.returncode or 4
    problem = result_problem(lines[-1], args.trace)
    print("\n".join(lines[:-1]))
    if problem is not None:
        print("arkbench: " + problem, file=sys.stderr)
        return proc.returncode or 5
    print(lines[-1])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
