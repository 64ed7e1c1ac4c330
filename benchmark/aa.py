#!/usr/bin/env python3
"""A/A check: run the same build in alternating sets and show what repeats.

    python3 benchmark/aa.py [--sets 2]

Run from the repository root. Each set runs every workload ten times, each
time with another seed, through the command in BENCHMARK.json exactly as the
acceptance driver does. Workloads alternate inside a set, so drift of the
host is shared between them instead of landing on one.

Per end-to-end metric x workload it prints each set's median and quartiles
(`statistics.quantiles(values, n=4)`), the spread (Q3 - Q1) / median, how
much worse each later set's median is than the first's, and the bound from
BENCHMARK.json. A pair is steady when every spread and every drift stays
under its bound; the target is a third of the bound. Exits 1 when a pair is
not steady.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

RUNS = 10


def run_once(command, workload, seed, seconds):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    started = time.time()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} operations failed")
    return result["metrics"], time.time() - started


def worse_by(first, later, better):
    """Share of `first` by which `later` is worse (negative: it is better)."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--sets", type=int, default=2)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]

    # samples[workload][metric][set] -> list of values
    samples = {w: {m["name"]: {} for m in bench["end_to_end"]} for w in workloads}
    wall = []
    for s in range(args.sets):
        for i in range(RUNS):
            seed = 1 + s * RUNS + i
            for w in workloads:
                metrics, took = run_once(bench["command"], w, seed, bench["run_seconds"])
                wall.append(took)
                for name, m in metrics.items():
                    samples[w][name].setdefault(s, []).append(m["value"])
                print(f"set {s} seed {seed} {w}: {took:.1f} s", file=sys.stderr)

    header = ["workload", "metric", "set", "q1", "median", "q3", "spread", "drift", "bound", ""]
    rows = []
    unsteady = 0
    for w in workloads:
        for spec in bench["end_to_end"]:
            first = None
            for s, values in sorted(samples[w][spec["name"]].items()):
                q1, q2, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / q2
                drift = 0.0 if first is None else worse_by(first, q2, spec["better"])
                first = q2 if first is None else first
                worst = max(spread, drift)
                verdict = ("UNSTEADY" if worst > spec["bound"]
                           else "above a third" if worst > spec["bound"] / 3 else "ok")
                unsteady += worst > spec["bound"]
                rows.append([
                    w, spec["name"], s, f"{q1:.6g}", f"{q2:.6g}", f"{q3:.6g}", f"{spread:.4f}",
                    f"{drift:+.4f}" if s else "", spec["bound"], verdict,
                ])
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())

    print(f"\n{len(wall)} runs, {sum(wall):.0f} s in all, longest {max(wall):.1f} s")
    sys.exit(1 if unsteady else 0)


if __name__ == "__main__":
    main()
