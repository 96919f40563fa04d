#!/usr/bin/env python3
"""Builds and runs the SBON benchmark from a source checkout.

    python3 sbonbench/run.py --workload maintain|place|chaos --seed N \
        --seconds S --trace 0|1

The library and the driver are built in Release mode under the build
directory (CARGO_TARGET_DIR if set, else .bench_build, relative to the
checkout root). The driver's stdout is passed through; its last line is the
result object. This script fails, without printing a result, when the
driver's metric names or units differ from those declared in BENCHMARK.json,
so the two cannot drift apart.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"sbonbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no SBON sources next to sbonbench/ (expected CMakeLists.txt "
             "and src/ in the checkout root)")
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, base, "sbonbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "sbon_bench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "sbon_bench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    declared = declared_metrics(args.trace == "1")
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        fail(f"driver exited {proc.returncode} without a result line")

    problems = []
    printed = result.get("metrics", {})
    for name in sorted(set(declared) - set(printed)):
        problems.append(f"missing metric {name}")
    for name in sorted(set(printed) - set(declared)):
        problems.append(f"undeclared metric {name}")
    for name in sorted(set(declared) & set(printed)):
        metric = printed[name]
        if metric.get("unit") != declared[name]:
            problems.append(f"{name}: unit {metric.get('unit')!r}, "
                            f"declared {declared[name]!r}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"{name}: no value ({value!r})")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if problems:
        fail("result does not match BENCHMARK.json: " + "; ".join(problems))
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
