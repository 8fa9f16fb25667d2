"""Compare two result sets against the bounds in ``BENCHMARK.json``.

    python3 bench/agree.py bench/out/results-A.json bench/out/results-B.json

One row per workload x end-to-end metric with both medians and quartiles.
A row is ``within`` when B's median is no worse than A's by more than the
metric's bound, ``WORSE`` when it is, and ``unresolved`` — not "unchanged" —
when either side's run-to-run spread (quartile distance over median) is
wider than the bound, so the comparison cannot tell.  ``setup_s`` is judged
on its medians alone, as the benchmark contract judges it: one import per
run is a single sample, and its spread is printed but gates nothing.  Runs
of the same seed must also agree exactly on what they computed (the digests)
and have no failures.  Exit status 0 only when every row is ``within``.

With one file, prints that set's medians and spreads alone.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List

from spans import quartiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> Dict[str, List[dict]]:
    """Untraced runs of a result set, by workload."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    by_workload: Dict[str, List[dict]] = {}
    for run in document["runs"]:
        if not run["trace"]:
            by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def stats(runs: List[dict], metric: str) -> dict:
    found = quartiles([run["metrics"][metric]["value"] for run in runs])
    found["spread"] = (found["p75"] - found["p25"]) / found["p50"]
    return found


def describe(found: dict) -> str:
    return (f"{found['p50']:>10.5g} [{found['p25']:.5g}, {found['p75']:.5g}] "
            f"spread {found['spread']:.3f}")


def main(argv: List[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    first = load(argv[0])
    second = load(argv[1]) if len(argv) == 2 else None
    status = 0
    for workload in (entry["name"] for entry in contract["workloads"]):
        if workload not in first or (second is not None
                                     and workload not in second):
            print(f"{workload:<15} missing from a result set")
            status = 1
            continue
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = stats(first[workload], name)
            line = f"{workload:<15} {name:<15} A {describe(a)}"
            if second is None:
                verdict = ("steady" if a["spread"] <= bound / 3 else
                           "loose" if a["spread"] <= bound else "UNSTEADY")
                print(f"{line}  bound {bound:.2f}  {verdict}")
                continue
            b = stats(second[workload], name)
            change = (b["p50"] - a["p50"]) / a["p50"]
            worse = -change if metric["better"] == "higher" else change
            if name != "setup_s" and max(a["spread"], b["spread"]) > bound:
                verdict = "unresolved"
            else:
                verdict = "within" if worse <= bound else "WORSE"
            if verdict != "within":
                status = 1
            print(f"{line}  B {describe(b)}  worse by {worse:+.3f} "
                  f"(bound {bound:.2f})  {verdict}")
        if second is None:
            continue
        digests_a = {run["seed"]: run["detail"]["digest"]
                     for run in first[workload]}
        mismatched = [run["seed"] for run in second[workload]
                      if run["seed"] in digests_a
                      and run["detail"]["digest"] != digests_a[run["seed"]]]
        failed = sum(run["failed"] for run in first[workload]
                     + second[workload])
        if mismatched or failed:
            status = 1
        print(f"{workload:<15} digests "
              f"{'identical' if not mismatched else f'DIFFER on seeds {mismatched}'}"
              f", failed units {failed}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
