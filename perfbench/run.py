#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload conf-sra --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --smoke

The first form builds perfbench (CMake, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload and relays its output; the last stdout line is the result JSON.
It exits non-zero without a result when the build or the run fails, or
when the printed metric names and units differ from BENCHMARK.json.

--smoke runs every workload at toy size with --trace 0 and 1 (the traced
one twice, diffed with diff_layers.py) and checks names and units.
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no wgrap sources at {os.path.join(ROOT, 'src')}; "
             "run from a full checkout")
    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_root, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4",
                  "--target", "perfbench"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in entries}, [w["name"] for w in
                                                     spec["workloads"]]


def check_result(lines, trace):
    """Returns the parsed result line, or exits when it breaks the spec."""
    if not lines:
        fail("no output")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last line is not JSON: {lines[-1]!r}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys {sorted(result)}")
    want, _ = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}, unit mismatch {units}")
    return result


def run_workload(binary, workload, seed, seconds, trace, smoke=False):
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        fail(f"{workload} exited with code {done.returncode}")
    lines = done.stdout.rstrip("\n").split("\n")
    check_result(lines, trace)
    return done.stdout


def smoke(binary):
    _, workloads = expected_metrics(False)
    with tempfile.TemporaryDirectory(dir=os.path.dirname(binary)) as tmp:
        for workload in workloads:
            for trace in (0, 1):
                out = run_workload(binary, workload, 1, 1, trace, smoke=True)
                result = json.loads(out.rstrip("\n").split("\n")[-1])
                print(f"smoke {workload} trace={trace}: correct="
                      f"{result['correct']} attempted={result['attempted']} "
                      f"failed={result['failed']}")
                if not result["correct"]:
                    sys.stdout.write(out)
                    fail(f"smoke {workload} trace={trace} is not correct")
                if trace:
                    paths = []
                    for copy in ("a", "b"):
                        path = os.path.join(tmp, f"{workload}.{copy}.txt")
                        with open(path, "w") as f:
                            f.write(out if copy == "a" else run_workload(
                                binary, workload, 1, 1, 1, smoke=True))
                        paths.append(path)
                    diff = subprocess.run(
                        [sys.executable, os.path.join(HERE, "diff_layers.py"),
                         "--same-work", *paths], stdout=subprocess.PIPE, text=True)
                    if diff.returncode != 0:
                        sys.stdout.write(diff.stdout)
                        fail(f"work counters of {workload} did not repeat")
    print("smoke: all workloads print the BENCHMARK.json metrics")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")
    binary = build()
    if args.smoke:
        smoke(binary)
        return
    sys.stdout.write(run_workload(binary, args.workload, args.seed,
                                  args.seconds, args.trace))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
