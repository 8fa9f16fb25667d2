"""Smoke test of the perf ledger: ``bench/run.py --quick`` end to end.

Runs every workload in both modes with tiny constants and checks the
benchmark's own contract: names are well-formed, the names a run prints are
exactly the ones ``BENCHMARK.json`` lists, and everything is written under
``bench/out/`` — never the repository root.
"""

import json
import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_quick_run_matches_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    before = set(os.listdir(ROOT))
    done = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"),
                           "--quick"], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert set(os.listdir(ROOT)) - before <= {"bench"}

    with open(os.path.join(BENCH_DIR, "out", "quick.json"),
              encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    workloads = [entry["name"] for entry in contract["workloads"]]
    assert sorted({run["workload"] for run in runs}) == sorted(workloads)
    wanted = {0: {metric["name"] for metric in contract["end_to_end"]},
              1: {metric["name"] for metric in contract["per_layer"]}}
    for run in runs:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        assert set(run["metrics"]) == wanted[run["trace"]], run["workload"]
    for name in workloads + sorted(wanted[0] | wanted[1]):
        assert NAME.fullmatch(name), name
