#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly and show each metric's spread.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workloads matrix_cold,fleet]
                                [--seed 1] [--trace 0]

Runs `perfbench/run.py` `--runs` times per workload in each of `--sets` sets,
each run with the next seed (`--seed`, `--seed + 1`, ...; every set takes new
seeds) and the `run_seconds` of BENCHMARK.json. A set runs every workload
before the next set starts. For every metric and set it prints the median,
the first and third quartiles (as `statistics.quantiles(values, n=4)` gives
them), the spread — the distance between the quartiles as a share of the
median — and, for end-to-end metrics, the metric's bound from
BENCHMARK.json: a spread above its bound is marked WIDE, one above a third
of it noisy. From the second set on it also prints the drift of each
median from the first set's, counted positive when the metric got worse,
and marks DRIFT where that exceeds the bound. It prints the share of
failed operations of every run, which must be identical.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of `values`."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def verdict(share, bound):
    if bound is None:
        return ""
    if share > bound:
        return "WIDE"
    if share > bound / 3:
        return "noisy"
    return "ok"


def drift(first, later, better):
    """How much worse the median `later` is than `first`, as a share of
    `first`: positive when worse, negative when better."""
    change = (later - first) / first if first else float("inf")
    return change if better == "lower" else -change


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.runs < 2 or a.sets < 1:
        raise SystemExit("--runs must be at least 2 to have quartiles, --sets at least 1")

    gated = {m["name"]: m for m in bench["end_to_end"]} if a.trace == 0 else {}
    workloads = a.workloads.split(",")
    results = {w: [] for w in workloads}
    seed = a.seed
    for k in range(a.sets):
        for workload in workloads:
            runs = []
            for _ in range(a.runs):
                r = run_once(workload, seed, bench["run_seconds"], a.trace)
                runs.append(r)
                print(f"set {k + 1} {workload} seed {seed}: "
                      + " ".join(f"{n}={v['value']:.6g}" for n, v in r["metrics"].items()),
                      flush=True)
                seed += 1
            results[workload].append(runs)

    for workload, sets in results.items():
        shares = sorted({r["failed"] / r["attempted"] for runs in sets for r in runs})
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"\n{workload}: {a.sets} set(s) of {a.runs} runs, correct in all: {correct}, "
              f"failed share(s): {shares}")
        print(f"  {'metric':<26} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} "
              f"{'drift':>8} {'bound':>6}")
        for name in sets[0][0]["metrics"]:
            first = None
            for k, runs in enumerate(sets):
                med, q1, q3, share = spread([r["metrics"][name]["value"] for r in runs])
                metric = gated.get(name)
                bound = metric["bound"] if metric else None
                flags = [verdict(share, bound)]
                shown_drift = "-"
                if first is None:
                    first = med
                elif metric:
                    d = drift(first, med, metric["better"])
                    shown_drift = f"{d:+.4f}"
                    if d > bound:
                        flags.append("DRIFT")
                shown = f"{bound:.2f}" if bound is not None else "-"
                print(f"  {name:<26} {k + 1:>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                      f"{share:>8.4f} {shown_drift:>8} {shown:>6} {' '.join(f for f in flags if f)}")
        print(flush=True)


if __name__ == "__main__":
    main()
