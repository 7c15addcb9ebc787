#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload of BENCHMARK.json in two sets of repeated, untraced runs
on the same commit, each run with another seed, then prints for every
end-to-end metric and workload both sets' medians and quartiles, the spread
(interquartile range over median) of each set, and whether the sets agree:
every spread, setup_s's too, within the metric's bound, and the last set's
median within the bound of the first's, whichever way it moved.

Run from the repository root:

    python3 perfbench/steady.py                  # 2 sets x 10 runs, all workloads
    python3 perfbench/steady.py --runs 5 --sets 1 --workloads scale-cold

Exit status is 0 when every metric of every workload agrees, 1 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

# Seeds of set s are SEED_BASE + 100 * s + 0, 1, ...
SEED_BASE = 1000


def run_once(command, workload, seed, seconds):
    """Runs one untraced run and returns its parsed result line."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return result


def spread(values):
    """Quartiles, median and (q3 - q1) / median, as the acceptance rule takes them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def worse_by(first, second, better):
    """How much worse the second median is than the first, as a share of the
    first; negative when it is better."""
    change = (second - first) / first if first else 0.0
    return -change if better == "higher" else change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", nargs="*", help="default: all")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    all_ok = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            for r in range(args.runs):
                seed = SEED_BASE + 100 * s + r
                started = time.time()
                result = run_once(bench["command"], workload, seed, bench["run_seconds"])
                for m in metrics:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
                shown = " ".join(f"{m['name']}={values[m['name']][-1]:.4g}" for m in metrics)
                print(f"# {workload} set {s + 1} seed {seed} ({time.time() - started:.1f} s): {shown}", flush=True)
            sets.append(values)
        print(f"\n== {workload}")
        print(f"{'metric':<16} {'set':>3} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s, values in enumerate(sets):
                q1, med, q3, sp = spread(values[name])
                medians.append(med)
                ok = sp <= bound
                all_ok &= ok
                print(f"{name:<16} {s + 1:>3} {q1:>12.4f} {med:>12.4f} {q3:>12.4f} {sp:>8.4f} {bound:>6}  "
                      f"{'ok' if ok else 'SPREAD'}{'' if sp <= bound / 3 else ' (above bound/3)'}")
            if len(medians) > 1:
                drift = worse_by(medians[0], medians[-1], m["better"])
                ok = abs(drift) <= bound
                all_ok &= ok
                print(f"{name:<16} {'1v' + str(len(medians)):>3} last median worse by {drift:+.4f}  "
                      f"{'agree' if ok else 'DISAGREE'}")
        sys.stdout.flush()
    print("\nall metrics agree within their bounds" if all_ok else "\nsome metrics do NOT agree")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
