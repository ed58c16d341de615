#!/usr/bin/env python3
"""Build and run one perfbench workload; print its result as the last line.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds the benchmark package (perfbench/,
compiling the library from src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset; later calls only rebuild
what changed.  Build output and the program's progress go to stderr.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1.  A traced run also leaves its spans in
<build>/perfbench/traces/.  Exit code 0 iff the run's outputs checked out.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170.0  # the whole call, build excluded, stays under 180 s


def log(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configure (once) and build; returns the benchmark binary's path."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    key = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in spec[key]}


def parse_result(stdout, trace):
    """The program's last stdout line, checked against BENCHMARK.json."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the program printed no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a positive integer")
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if printed != expected_metrics(trace):
        raise ValueError("printed metrics differ from BENCHMARK.json")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "txconflict.hpp")):
        log(f"library sources not found under {ROOT}/src")
        return 2
    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 3

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", traces]
    started = time.monotonic()
    try:
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                   timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {DEADLINE_S:.0f} s")
        return 4
    log(f"{args.workload} seed {args.seed} ran "
        f"{time.monotonic() - started:.1f} s, exit code {completed.returncode}")
    try:
        result = parse_result(completed.stdout, args.trace)
    except (ValueError, KeyError, OSError) as error:
        log(f"no valid result: {error}")
        return 5
    print(json.dumps(result))
    return 0 if completed.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
