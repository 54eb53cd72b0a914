#!/usr/bin/env python3
"""Run one workload of the simulator's benchmark and print its result.

    python3 perfbench/run.py --workload <matrix_cold|fleet|daemon> \
        --seed N --seconds S --trace <0|1>

Run it from the root of a checkout. It builds the benchmark binary from
source (`cargo build --release` of `perfbench/Cargo.toml`, into
`$CARGO_TARGET_DIR`, default `.bench_build`), runs the workload in a fresh work
directory under `.bench_work/`, and removes that directory afterwards.

With `--trace 0` the result carries the end-to-end metrics: `setup_s` is the
median of eleven set-ups (the measured run's own and ten set-up-only runs,
five before it and five after, each in a fresh process), and `peak_rss_mib` is the measured process's peak
resident set. With `--trace 1` it carries the per-layer split. The last line
of standard output is the JSON result; the line before it records the
provenance of the figures (machine, toolchain, commit, threads, filesystem).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
WORKLOADS = ("matrix_cold", "fleet", "daemon")
# Set-up-only runs besides the measured run's own set-up.
SETUP_EXTRA = 10
# Everything after the build — set-ups and the measured run — ends within
# this many seconds, or the run fails.
RUN_BUDGET_S = 170


def fail(why):
    print(f"perfbench: {why}", file=sys.stderr)
    sys.exit(1)


def build(env):
    """Builds the benchmark binary; returns its path."""
    manifest = os.path.join(BENCH, "Cargo.toml")
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if done.returncode != 0:
        fail("the benchmark does not build here")
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    if not os.path.isfile(binary):
        fail(f"no binary at {binary}")
    return binary


def run_binary(binary, args, cwd, env, deadline):
    """Runs the binary in the fresh directory `cwd`, removed again as soon as
    the binary exits, and kills it at `deadline` (a `time.monotonic()`);
    returns (stdout lines, result, peak RSS MiB)."""
    os.makedirs(cwd)
    proc = subprocess.Popen([binary] + args, cwd=cwd, env=env, stdout=subprocess.PIPE)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        # wait4 reaps this child alone, so the peak RSS is the binary's own
        # (not the compiler's from the build step).
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        # Cache files removed before the kernel writes them back cost the
        # disk nothing; removed later, they cost the next run seconds of
        # slow file creation while the freed blocks are discarded.
        shutil.rmtree(cwd, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"{' '.join(args)} exited with {proc.returncode}")
    lines = out.decode().splitlines()
    if not lines:
        fail(f"{' '.join(args)} printed nothing")
    return lines[:-1], json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def provenance(work, threads):
    def cmd(argv):
        try:
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
        return done.stdout.strip() if done.returncode == 0 else "unknown"

    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = cmd(["git", "rev-parse", "HEAD"])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": cmd(["rustc", "-V"]),
        "commit": commit,
        "threads": threads,
        "cache_fs": cmd(["stat", "-f", "-c", "%T", work]),
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    a = p.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        fail("--seed must be non-negative and --seconds positive")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(env["CARGO_TARGET_DIR"]):
        env["CARGO_TARGET_DIR"] = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    # Pin the cache revision: no `git` lookups, the same keys in every run.
    env["LEASEOS_CACHE_REV"] = "perfbench"
    env.pop("LEASEOS_BENCH_THREADS", None)
    binary = build(env)
    deadline = time.monotonic() + RUN_BUDGET_S

    work = os.path.join(ROOT, ".bench_work", f"{a.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]
    setups = []

    def setup_only(count):
        for _ in range(count if a.trace == "0" else 0):
            _, r, _ = run_binary(binary, args + ["--trace", "0", "--setup-only"],
                                 os.path.join(work, f"setup-{len(setups)}"), env, deadline)
            setups.append(r["metrics"]["setup_s"]["value"])

    try:
        # Half the extra set-ups before the measured run and half after, so
        # that one slow phase of the host does not hold all of them.
        setup_only(SETUP_EXTRA // 2)
        lines, result, peak_rss = run_binary(binary, args + ["--trace", a.trace],
                                             os.path.join(work, "run"), env, deadline)
        setup_only(SETUP_EXTRA - SETUP_EXTRA // 2)
        prov = provenance(os.path.dirname(work), result["threads"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    metrics = result["metrics"]
    if a.trace == "0":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            end_to_end = [m["name"] for m in json.load(f)["end_to_end"]]
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
        metrics["peak_rss_mib"] = {"value": peak_rss, "unit": "MiB"}
        missing = [m for m in end_to_end if m not in metrics]
        if missing:
            fail(f"the binary reported no {missing}")
        metrics = {m: metrics[m] for m in end_to_end}
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"{name}: {m['value']} {m['unit']}")
    print(f"operations: {result['attempted']} attempted, {result['failed']} failed")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
