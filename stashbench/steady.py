#!/usr/bin/env python3
"""Steadiness check: runs workloads k times and reports each metric's spread.

    python3 stashbench/steady.py --workload pan_fig6b --runs 10
    python3 stashbench/steady.py --runs 10 --json a.json          # all workloads
    python3 stashbench/steady.py --runs 10 --baseline a.json      # second set

Each run uses another seed (--first-seed, --first-seed + 1, ...) and the
run length from BENCHMARK.json.  For every end-to-end metric it prints the
median, the quartiles (statistics.quantiles(values, n=4)), the spread
(q3 - q1) / median and the metric's bound from BENCHMARK.json:

  steady   spread below a third of the bound (the target)
  within   spread within the bound
  WIDE     spread above the bound

With --baseline, each median is also compared with the saved one and
flagged DRIFT when it is worse by more than the bound.  Exits 1 when any
run fails, any metric is WIDE or any median drifts.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed,
                                                     proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError("%s seed %d: correct=%s failed=%d"
                           % (workload, seed, result["correct"],
                              result["failed"]))
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"),
            "values": values}


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: every workload in "
                             "BENCHMARK.json")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--json", help="save the summary here")
    parser.add_argument("--baseline", help="compare medians with this summary")
    args = parser.parse_args()
    if args.runs < 4:
        parser.error("--runs must be at least 4 for quartiles")

    bounds = {m["name"]: m for m in bench["end_to_end"]}
    baseline = None
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)

    summary = {}
    ok = True
    for workload in args.workload or names:
        samples = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            try:
                metrics = run_once(workload, seed, args.seconds)
            except RuntimeError as e:
                print("FAIL", e)
                ok = False
                break
            for k, v in metrics.items():
                samples.setdefault(k, []).append(v)
            print("  %s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % kv for kv in sorted(metrics.items()))),
                flush=True)
        else:
            summary[workload] = {}
            print("%s (%d runs, %d s each)" % (workload, args.runs,
                                              args.seconds))
            print("  %-16s %14s %14s %14s %8s %6s  %s" % (
                "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
            for name, values in samples.items():
                s = summarize(values)
                summary[workload][name] = s
                bound = bounds[name]["bound"]
                if s["spread"] <= bound / 3:
                    verdict = "steady"
                elif s["spread"] <= bound:
                    verdict = "within"
                else:
                    verdict = "WIDE"
                    ok = False
                if baseline and name in baseline.get(workload, {}):
                    before = baseline[workload][name]["median"]
                    lower = bounds[name]["better"] == "lower"
                    worse = (s["median"] - before if lower
                             else before - s["median"])
                    drift = worse / before if before else 0.0
                    verdict += " drift %+.3f" % drift
                    if drift > bound:
                        verdict += " DRIFT"
                        ok = False
                print("  %-16s %14.6g %14.6g %14.6g %8.4f %6.3f  %s" % (
                    name, s["median"], s["q1"], s["q3"], s["spread"], bound,
                    verdict))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
