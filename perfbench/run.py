#!/usr/bin/env python3
"""Run one perfbench workload from the repository root.

    python3 perfbench/run.py --workload churn_tpch --seed 1 --seconds 20 --trace 0

Builds the benchmark package (into $CARGO_TARGET_DIR, else
perfbench/target), runs the peak-heap pass in its own process (untraced
runs only), then the timed run, and prints both runs' metric lines with the
joined JSON summary as the last line. `--workload all` runs every workload
in turn, each ending with its summary line. Exits non-zero when the build
fails, a run fails, or any output is incorrect.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("discover", "churn_tpch", "churn_durable", "read_mostly")
# Per workload, after the build: both processes must end within this.
TIMEOUT_S = 170


def child(binary, flags, deadline):
    """Run one benchmark process; echo its metric lines, return its summary."""
    try:
        proc = subprocess.run(
            [binary] + flags,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {os.path.basename(binary)} timed out")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"perfbench: {os.path.basename(binary)} printed no summary "
                 f"(exit {proc.returncode})")
    if proc.returncode != 0 and summary.get("correct", False):
        sys.exit(f"perfbench: {os.path.basename(binary)} exited {proc.returncode}")
    return summary


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def workload(name, args, bindir):
    """Run one workload; print its lines and summary; return correctness."""
    deadline = time.monotonic() + TIMEOUT_S
    flags = ["--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    runs = []
    if not args.trace:
        runs.append(child(os.path.join(bindir, "perfbench-peak"), flags, deadline))
    runs.append(child(os.path.join(bindir, "perfbench"), flags, deadline))

    metrics = {}
    for run in runs:
        metrics.update(run["metrics"])
    declared = declared_metrics(args.trace)
    if sorted(metrics) != sorted(declared):
        sys.exit(f"perfbench: metrics {sorted(metrics)} differ from "
                 f"BENCHMARK.json {sorted(declared)}")
    summary = {
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {name: metrics[name] for name in declared},
    }
    print(json.dumps(summary), flush=True)
    return summary["correct"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build = subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--offline",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    bindir = os.path.join(os.path.abspath(target), "release")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = [workload(name, args, bindir) for name in names]
    sys.exit(0 if all(correct) else 1)


if __name__ == "__main__":
    main()
