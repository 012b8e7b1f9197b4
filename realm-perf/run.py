#!/usr/bin/env python3
"""Runs the realm-perf benchmark.

Builds the benchmark (and, for a traced run, its self-profiling variant in
a separate target directory), runs one workload, and prints the result as
the last line of standard output:

    python3 realm-perf/run.py --workload contention --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics from an untraced build. --trace 1
reports the per-layer metrics: counts and timed public calls from an
untraced build, tick times from the self-profile build, and the difference
of the two builds' run times as the tracing overhead. The workloads are
fixed by the experiments they reproduce, so --seed selects nothing; it is
accepted so every run states the seed it was given.

Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
realm-perf/target); the traced build goes to its self-profile/
subdirectory so it never overwrites the untraced binary.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ["contention", "sparse_regulated", "cache_dram"]


def fail(message):
    print(f"realm-perf: {message}", file=sys.stderr)
    sys.exit(2)


def build(target_dir, features=None):
    """Builds the benchmark binary into `target_dir` and returns its path."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST, "--target-dir", target_dir]
    if features:
        cmd += ["--features", features]
    # Cargo's own output goes to stderr so stdout carries only the result.
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(target_dir, "release", "realm-perf")


def measure(binary, workload, mode, seconds):
    """Runs one measurement and returns its JSON summary."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--mode", mode, "--seconds", str(seconds)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    # Exit code 1 means some simulation failed; the summary still counts it.
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{mode} measurement exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    untraced = build(target)
    print(f"realm-perf: workload {args.workload}, seed {args.seed}, trace {args.trace}")

    if args.trace == 0:
        runs = [measure(untraced, args.workload, "e2e", args.seconds)]
        mismatched = 0
    else:
        traced = build(os.path.join(target, "self-profile"), "self-profile")
        layers = measure(untraced, args.workload, "layers", args.seconds / 2)
        profiled = measure(traced, args.workload, "traced", args.seconds / 2)
        runs = [layers, profiled]
        # Profiling must not change a single simulated statistic.
        mismatched = sum(1 for label, fp in layers["fingerprints"].items()
                         if profiled["fingerprints"].get(label) != fp)
        overhead = profiled["metrics"]["trace.run_s"]["value"] - layers["metrics"]["sim.run_s"]["value"]
        profiled["metrics"]["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        if mismatched:
            print(f"FAILED {mismatched} system(s) simulate differently under the profiler")

    metrics = {}
    for run in runs:
        metrics.update(run["metrics"])
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs) + mismatched
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
