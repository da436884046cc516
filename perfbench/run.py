#!/usr/bin/env python3
"""Runs the trigger engine's end-to-end benchmark (see README.md here).

    python3 perfbench/run.py --workload covid_stream --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. It builds the engine and the benchmark
from source into .bench_build/ on first use, runs one workload, and passes
through the benchmark's report; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The exit
code is 0 only when every correctness gate passed. An untraced run is five
processes with the same seed, each measuring a fifth of --seconds; each
metric is their median.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "pgt_perfbench")
# A run must end within 180 s; leave room for start-up and clean-up.
RUN_TIMEOUT_S = 170
# An untraced run is this many processes; see main().
PROCESSES = 5


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "trigger", "database.h")):
        fail("the engine sources (src/) are not next to perfbench/; run from "
             "the root of a full checkout")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (full log: %s)" % log_path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.trace:
        spans_dir = os.path.join(BUILD_ROOT, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, "%s-seed%d.tsv" % (args.workload, args.seed))
        result, code, _ = run_once(args, args.seconds, 0, deadline,
                                   ["--spans", spans])
        print(json.dumps(result))
        sys.exit(code)
    # A run is PROCESSES processes of --seconds / PROCESSES each, with one
    # seed (the same work); every metric is the median over them. The
    # host slows down in bursts of seconds; the median outvotes the
    # processes a burst hits, while a slower engine slows all of them.
    results, digests, code = [], set(), 0
    for k in range(PROCESSES):
        result, rc, lines = run_once(args, args.seconds / PROCESSES, k,
                                     deadline, [])
        results.append(result)
        digests.update(l for l in lines if l.startswith("digest "))
        code = code or rc
    # One seed, the same work: every process must end in the same state.
    deterministic = len(digests) == 1
    if not deterministic:
        print("perfbench: processes with one seed ended in different states: "
              + " | ".join(sorted(digests)), file=sys.stderr)
        code = code or 1
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values), "unit": first["unit"]}
    print(json.dumps({
        "correct": deterministic and all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    sys.exit(code)


def run_once(args, seconds, index, deadline, extra):
    """Runs the benchmark program once; returns its result, exit code and
    report lines."""
    work = os.path.join(BUILD_ROOT, "work", "%s-%d-%d-%d" % (
        args.workload, args.seed, os.getpid(), index))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--work-dir", work] + extra
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        fail("the run did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        fail("the benchmark printed no result (exit code %d)" % proc.returncode)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print("process %d: wall %.1f s, %s" % (
        index, time.monotonic() - start,
        " ".join("%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())))
    return result, proc.returncode, lines[:-1]


if __name__ == "__main__":
    main()
