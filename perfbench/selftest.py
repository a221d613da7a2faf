#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout. For every workload in BENCHMARK.json it
runs perfbench/run.py at --size tiny, untraced and traced, and checks:

  * the result line has exactly the contract's keys, is correct, and fails
    no operation;
  * the untraced run prints exactly the end_to_end metrics and the traced
    run exactly the per_layer metrics, with BENCHMARK.json's units;
  * a second process with the same seed reproduces every virtual-time
    metric bit for bit;
  * the seven *.vt_us_per_txn components are all present (tabsbench itself
    checks that they sum exactly to the mean attempt latency).

Finally it checks that the benchmark fails, without a result line, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exits non-zero on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMPONENTS = ["tabs", "txn", "recovery", "comm", "servers", "kernel", "log"]


def run(workload, trace, seed=7, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)


def result_of(proc, what):
    if proc.returncode != 0:
        sys.exit("%s: exit code %d\n%s" % (what, proc.returncode, proc.stderr[-2000:]))
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("%s: wrong result keys %s" % (what, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit("%s: bad result %s" % (what, result))
    return result


def check_metrics(result, declared, what):
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        sys.exit("%s: metrics differ from BENCHMARK.json\n  missing %s\n  extra %s" % (
            what, sorted(set(want) - set(got)), sorted(set(got) - set(want))))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        plain = result_of(run(name, 0), name + " untraced")
        check_metrics(plain, bench["end_to_end"], name + " untraced")
        again = result_of(run(name, 0), name + " untraced, second process")
        for metric, m in plain["metrics"].items():
            if metric.startswith("vt_") and m["value"] != again["metrics"][metric]["value"]:
                sys.exit("%s: %s differs between two processes with one seed" % (name, metric))
        traced = result_of(run(name, 1), name + " traced")
        check_metrics(traced, bench["per_layer"], name + " traced")
        for c in COMPONENTS:
            if c + ".vt_us_per_txn" not in traced["metrics"]:
                sys.exit("%s: no %s.vt_us_per_txn" % (name, c))
        print("ok  %s" % name)

    # Without the program's sources the benchmark must fail, printing no result.
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_build")
                                     if os.path.isdir(os.path.join(ROOT, ".bench_build"))
                                     else None) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
        cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
               bench["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            sys.exit("the benchmark did not fail without the program's sources")
    print("ok  fails without sources")


if __name__ == "__main__":
    main()
