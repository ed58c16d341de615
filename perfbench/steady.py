#!/usr/bin/env python3
"""Steadiness check: run every workload several times and report spreads.

Usage (from the repository root):

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--workloads a,b]
                                [--seed-base N] [--save FILE] [--against FILE]

Each round runs every workload once, each with its own seed (seed-base +
round), alternating the workload order between rounds so no workload always
runs first.  For every end-to-end metric it prints the median, the first and
third quartiles (Python's statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median, flagging a spread above the metric's bound in
BENCHMARK.json ("!!"; setup_s is exempt from the spread rule, so its
flag is informational) or above a third of it ("~").  --save writes the raw
values; --against FILE compares this set's medians with a saved set and
flags any metric whose median got worse by more than its bound.  Exit code
1 when anything is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code "
                         f"{completed.returncode}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"{workload} seed {seed}: outputs did not check out")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(metric, before, after):
    """Relative worsening of `after` against `before` (negative: better)."""
    change = (after - before) / before
    return -change if metric["better"] == "higher" else change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    values = {w: {} for w in workloads}
    for round_index in range(args.runs):
        order = workloads if round_index % 2 == 0 else workloads[::-1]
        for workload in order:
            seed = args.seed_base + round_index
            for name, value in run_once(workload, seed, args.seconds).items():
                values[workload].setdefault(name, []).append(value)
            print(f"round {round_index + 1}/{args.runs}: {workload} done",
                  file=sys.stderr, flush=True)

    previous = None
    if args.against:
        with open(args.against) as handle:
            previous = json.load(handle)
    flagged = False
    print(f"{'workload':22} {'metric':18} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}  vs-saved")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            series = values[workload][name]
            q1, med, q3 = spread(series)
            relative = (q3 - q1) / med if med else 0.0
            mark = ""
            if relative > metric["bound"]:
                mark = "!!"
                flagged = flagged or name != "setup_s"
            elif relative > metric["bound"] / 3:
                mark = "~"
            versus = ""
            if previous is not None:
                before = statistics.median(previous[workload][name])
                delta = worse_by(metric, before, med)
                versus = f"{delta:+.3f}"
                if delta > metric["bound"]:
                    versus += " !!"
                    flagged = True
            print(f"{workload:22} {name:18} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {relative:7.3f} {metric['bound']:6.3f} "
                  f"{mark:2} {versus}")
    if args.save:
        with open(args.save, "w") as handle:
            json.dump(values, handle, indent=1)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
