#!/usr/bin/env python3
"""Build and run the S* host benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first run configures and compiles perfbench/ (and the library in
src/) into .bench_build/ under the repository root; later runs only
re-check the build. The benchmark's output is passed through; its last
stdout line is the result object. Build output goes to stderr.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "sstar_perfbench")
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no S* sources under src/ next to perfbench/")
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "sstar_perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, check=False)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", choices=["0", "1"])
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    run_args = (a.workload, a.seed, a.seconds, a.trace)
    if not a.self_test and None in run_args:
        p.error("--workload, --seed, --seconds and --trace are required")

    build()
    if a.self_test:
        cmd = [BINARY, "--self-test"]
    else:
        cmd = [BINARY, "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", str(a.seconds), "--trace", a.trace,
               "--git-rev", git_revision()]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
