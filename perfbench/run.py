#!/usr/bin/env python3
"""Runs one workload of the rgleak benchmark described by BENCHMARK.json.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (which compiles the
library from ../src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, runs the workload with a scratch directory under
.bench_work/, and relays the binary's standard output: `# key: value` detail
lines, then the JSON result as the last line. Exits non-zero, without a
result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("mc-validate", "plan-batch", "table1-signoff")


def run_timeout_s(seconds):
    """Limit on one workload run: set-ups, minimum work and traced probes come
    on top of the timed --seconds (170 s at the default 10 s)."""
    return 140 + 3 * seconds


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds the benchmark binary; returns its path."""
    out = build_dir()
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if os.path.exists(os.path.join(out, "CMakeCache.txt")):
        generator = []  # an existing tree keeps its generator
    subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out] + generator,
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j",
                    str(min(os.cpu_count() or 1, 4))], stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    timeout = run_timeout_s(args.seconds)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed), "--seconds",
             repr(args.seconds), "--trace", args.trace, "--workdir", workdir],
            stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} did not finish within {timeout:g} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"run.py: {args.workload} exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = {}
    if not isinstance(result, dict) or sorted(result) != ["attempted", "correct", "failed",
                                                          "metrics"]:
        print("run.py: malformed result line", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
