#!/usr/bin/env python3
"""Benchmark entry point: builds stashbench from source, then runs it.

    python3 stashbench/run.py --workload pan_fig6b --seed 1 --seconds 40 --trace 0

Run from the repository root (or any checkout of it).  The library in
../src and the program in this directory are configured and built under
.bench_build/stashbench (incremental after the first run); all build
output goes to stderr, so the last line of stdout is the program's JSON
result.  With --trace 1 the span file is written to
.bench_build/spans/<workload>.csv.  Exit status is the program's; a build
failure or a timeout exits non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "stashbench")
BINARY = os.path.join(BUILD, "stashbench")
WORKLOADS = ("pan_fig6b", "scan_cold", "explore_evict")


def run_timeout(seconds):
    """The rounds stop within --seconds; set-up, the traced round and the
    oracle add a few rounds' time.  2 x seconds + 60 s covers them with
    room for a loaded host."""
    return 2 * seconds + 60


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no library sources at %s; run from a full checkout"
                 % os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "stashbench",
                  "-j", jobs])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit("run.py: build step failed: %s" % " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="self-test: corrupt one answer; the oracle gate "
                             "must refuse the run")
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(OUT, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, args.workload + ".csv")]
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")
    sys.stdout.flush()
    timeout = run_timeout(args.seconds)
    try:
        result = subprocess.run(cmd, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: %s did not finish within %.0f s"
                 % (args.workload, timeout))
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
