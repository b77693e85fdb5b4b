#!/usr/bin/env python3
"""Self-test of the benchmark itself, at a tiny size (a few minutes).

    python3 stashbench/selftest.py [--seconds 1]

For every workload of the program (those in BENCHMARK.json, and
explore_evict, which is run by hand) it checks that:
  * the end-to-end run prints exactly the end_to_end metrics, with their
    units, and reports a correct, failure-free run;
  * another seed changes the generated queries but not the metric set;
  * the traced run prints exactly the per_layer metrics and writes a span
    file with spans from every layer;
  * a deliberately corrupted answer trips the oracle gate: non-zero exit
    and no result line.
It also checks that run.py refuses, without printing a result, when the
library sources are missing (a directory holding only BENCHMARK.json and
stashbench/).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAYERS = ("exec.", "core.", "storage.", "model.", "geo.", "common.")


def run(args, cwd=ROOT, timeout=300):
    cmd = [sys.executable, os.path.join(HERE, "run.py")] + args
    if cwd != ROOT:
        cmd[1] = os.path.join(cwd, "stashbench", "run.py")
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def result_of(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def field(lines, key):
    for line in lines:
        parts = line.split()
        if len(parts) >= 2 and parts[0] == key:
            return parts[1]
    return None


class Checker:
    def __init__(self):
        self.failures = 0

    def check(self, ok, what):
        print("  %s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
        if not ok:
            self.failures += 1


def expect_metrics(c, label, result, specs):
    c.check(result is not None, "%s prints a result line" % label)
    if result is None:
        return
    c.check(result["correct"] is True and result["failed"] == 0
            and result["attempted"] >= 1,
            "%s is correct with no failed operation" % label)
    want = {m["name"]: m["unit"] for m in specs}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    c.check(got == want, "%s metric names and units match BENCHMARK.json"
            % label)
    c.check(all(isinstance(v.get("value"), (int, float))
                for v in result["metrics"].values()),
            "%s metric values are numbers" % label)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    c = Checker()
    secs = str(args.seconds)

    for w in WORKLOADS:
        print(w)
        base = ["--workload", w, "--seconds", secs]
        code, lines, _ = run(base + ["--seed", "1", "--trace", "0"])
        c.check(code == 0, "seed 1 exits 0")
        first = result_of(lines)
        expect_metrics(c, "seed 1", first, bench["end_to_end"])

        code, lines2, _ = run(base + ["--seed", "2", "--trace", "0"])
        second = result_of(lines2)
        c.check(code == 0, "seed 2 exits 0")
        expect_metrics(c, "seed 2", second, bench["end_to_end"])
        q1, q2 = field(lines, "queries_digest"), field(lines2, "queries_digest")
        c.check(q1 is not None and q2 is not None and q1 != q2,
                "seed 2 generates other queries (%s vs %s)" % (q1, q2))

        code, lines3, _ = run(base + ["--seed", "1", "--trace", "1"])
        c.check(code == 0, "traced run exits 0")
        expect_metrics(c, "traced run", result_of(lines3), bench["per_layer"])
        c.check(field(lines3, "queries_digest") == q1,
                "traced run replays the same queries as seed 1")
        spans_path = field(lines3, "spans_file")
        names = set()
        if spans_path and os.path.isfile(spans_path):
            with open(spans_path) as f:
                next(f)
                names = {line.split(",")[2] for line in f}
        for layer in LAYERS:
            c.check(any(n.startswith(layer) for n in names),
                    "span file has %s spans" % layer.rstrip("."))

        code, lines4, _ = run(base + ["--seed", "1", "--trace", "0",
                                      "--inject-mismatch"])
        c.check(code != 0 and result_of(lines4) is None,
                "corrupted answer trips the oracle gate (exit %d)" % code)

    print("bare directory")
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "stashbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, _ = run(["--workload", "scan_cold", "--seed", "1",
                          "--seconds", secs, "--trace", "0"], cwd=bare)
    c.check(code != 0 and result_of(lines) is None,
            "refuses without library sources (exit %d)" % code)
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % c.failures if c.failures else "all checks passed")
    sys.exit(1 if c.failures else 0)


if __name__ == "__main__":
    main()
