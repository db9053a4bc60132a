#!/usr/bin/env python3
"""Build the focs repository benchmark and run one workload.

Run from the root of a focs checkout:

  python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 10 --trace 0

Workloads: sweep_cold, design_space, daemon_small (see perfbench/README.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run, whose span file is then validated with tools/trace_summary.py.

The benchmark is built from source under $CARGO_TARGET_DIR (default
.bench_build) on first use. Build logs and the metric table go to stderr
and stdout respectively; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}. Any failure to build or run
exits non-zero without that line.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.exit(f"perfbench: build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "perfbench")


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["sweep_cold", "design_space", "daemon_small"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                                             "perfbench"))
    binary = build(build_dir)
    trace_out = os.path.join(build_dir, f"trace-{args.workload}-{args.seed}.json")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--config", os.path.join(HERE, "expected.json"), "--trace-out", trace_out]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        sys.exit(f"perfbench: exited with code {done.returncode}")
    result = json.loads(lines[-1])

    expected = declared_metrics(args.trace == 1)
    if expected is not None and list(result["metrics"]) != expected:
        sys.exit("perfbench: metrics differ from BENCHMARK.json: "
                 f"{sorted(set(result['metrics']) ^ set(expected))}")

    if args.trace == 1:
        # The span file must pass the repository's own trace checker.
        summary = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "trace_summary.py"),
                                  trace_out, "--top", "12"],
                                 stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        sys.stderr.write(summary.stdout)
        result["attempted"] += 1
        if summary.returncode != 0:
            result["failed"] += 1
            result["correct"] = False

    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
