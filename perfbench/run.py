#!/usr/bin/env python3
"""Build and run the in-process benchmark of the search and sweep paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library and perfbench/src into .bench_build/perfbench (Release); later runs
only rebuild what changed. The benchmark binary's report is relayed to
stdout; its last line is the JSON result. Each result is also appended,
with the run environment, to .bench_build/perfbench/results.jsonl, and a run
whose kernel backend, compiler or build type differs from an earlier result
in that file is refused: such results are not comparable.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKDIR = os.path.join(BUILD, "run")
HISTORY = os.path.join(BUILD, "results.jsonl")
BINARY = os.path.join(BUILD, "imx_perfbench")
# Environment fields that must agree before two results may be compared.
COMPARABLE = ("backend", "compiler", "build_type")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no library sources next to {HERE}; run from a full checkout")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "imx_perfbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def check_history(env):
    if not os.path.isfile(HISTORY):
        return
    with open(HISTORY) as f:
        for line in f:
            earlier = json.loads(line)["env"]
            for key in COMPARABLE:
                if earlier.get(key) != env.get(key):
                    fail(f"refusing to mix results: {key} is {env.get(key)!r}"
                         f" here but {earlier.get(key)!r} in {HISTORY};"
                         " move that file away to start a new series")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    args = parser.parse_args()

    build()
    os.makedirs(WORKDIR, exist_ok=True)
    proc = subprocess.run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--workdir", WORKDIR,
         "--reference", os.path.join(HERE, "reference.txt")],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")),
               None)
    result = json.loads(lines[-1])
    if env is None or set(result) != {"correct", "attempted", "failed",
                                      "metrics"}:
        sys.stdout.write(proc.stdout)
        fail("benchmark printed no environment or a malformed result")
    check_history(env)
    with open(HISTORY, "a") as f:
        f.write(json.dumps({"env": env, "result": result}) + "\n")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
