#!/usr/bin/env python3
"""Simulator benchmark: build, run one workload, print one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload analog-live --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/ (its own CMake project over ../src) into
.bench_build/perfbench, samples set-up time over several fresh
processes, runs the measured process and prints its report. The last
line of stdout is one JSON object with correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. Exits 0 only when every simulated point was correct.
README.md next to this file describes every workload and metric.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("analog-live", "ci-stress", "fig10-replay")

# Set-up samples per run, the measured process included; set-up time
# is their median. Replay set-up captures eight traces, so it gets
# fewer, longer samples.
SETUP_SAMPLES = {"analog-live": 11, "ci-stress": 11, "fig10-replay": 5}

BUILD_TIMEOUT_S = 800
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(targets):
    """Configure once, then build targets; compiler output to stderr."""
    if not (ROOT / "src" / "core" / "processor.hh").is_file():
        die("simulator sources not found under " + str(ROOT / "src"))
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode:
            die("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "-j", "4", "--target"] + targets
    if subprocess.run(cmd, stdout=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode:
        die("build failed")


def setup_seconds(spawn, res):
    """Set-up time of one process in reference-speed seconds.

    The spawn time is CLOCK_MONOTONIC, the clock the child reports its
    end of set-up on; the child's host-speed probe right after set-up
    scales the difference like every other timing (see README.md).
    """
    return (res["ready_ns"] - spawn) / 1e9 * res["setup_speed"]


def run_child(args, timeout):
    """Run the benchmark binary; return (spawn ns, stdout lines, result)."""
    spawn = time.monotonic_ns()
    proc = subprocess.Popen([str(BUILD / "perfbench")] + args,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die("benchmark process timed out: " + " ".join(args))
    lines = out.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(out)
        die("benchmark process failed (exit %d)" % proc.returncode)
    return spawn, lines[:-1], json.loads(lines[-1])


def self_test():
    build(["perfbench_tests"])
    return subprocess.run([str(BUILD / "perfbench_tests"),
                           str(ROOT / "BENCHMARK.json")],
                          timeout=RUN_TIMEOUT_S).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    opt = ap.parse_args()
    if opt.self_test:
        return self_test()
    if opt.workload is None:
        ap.error("--workload is required")
    if opt.seed < 0 or opt.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    build(["perfbench"])
    work = BUILD / "work" / str(os.getpid())
    trace_file = BUILD / "traces" / ("%s-seed%d.json" %
                                     (opt.workload, opt.seed))
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    common = ["--workload", opt.workload, "--seed", str(opt.seed)]
    try:
        setup = []
        if not opt.trace:
            for k in range(SETUP_SAMPLES[opt.workload] - 1):
                spawn, _, res = run_child(
                    common + ["--setup-only", "--work-dir",
                              str(work / ("setup%d" % k))],
                    SETUP_TIMEOUT_S)
                setup.append(setup_seconds(spawn, res))
        spawn, lines, res = run_child(
            common + ["--seconds", str(opt.seconds),
                      "--trace", str(opt.trace),
                      "--work-dir", str(work / "run"),
                      "--trace-out", str(trace_file)],
            RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup.append(setup_seconds(spawn, res))

    metrics = res["metrics"]
    if not opt.trace:
        metrics["setup_s"] = {"value": statistics.median(setup),
                              "unit": "s"}
        print("setup_s samples: " +
              " ".join("%.6f" % s for s in setup))
    for line in lines:
        print(line)
    print(json.dumps({"correct": res["correct"],
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": metrics}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
