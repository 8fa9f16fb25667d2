"""CPU seconds per protocol step of a process-cluster run, by process.

    PYTHONPATH=src python tests/cluster_cpu.py [--runs 6] [--steps 200] [--seed 761]

Runs the perf ledger's live scenario (4 workers, 3 servers, full quorums,
median rules; ``live_spec`` in ``bench/workloads.py``) through
``repro.run`` on the cluster runtime, once to start the template process
and then ``--runs`` times measured.  Around each run it reads ``utime`` +
``stime`` of every thread of this process — the supervisor — and of the
template process from ``/proc/<pid>/task/*/stat``, plus the template's
``cutime`` + ``cstime`` from ``/proc/<pid>/stat``: the node processes it
forked and reaped.  Per run it prints the wall time and the CPU seconds
per step of the supervisor and of template + nodes, then the medians, and
the share of the host's CPUs the run kept busy.  Linux only (``/proc``).
"""

from __future__ import annotations

import argparse
import os
import statistics
import time
from pathlib import Path

TICK = os.sysconf("SC_CLK_TCK")


def stat_fields(path: Path):
    """The fields of a ``stat`` file after the command name: ``[0]`` is
    the state (field 3 of proc(5)), so ``utime`` is ``[11]``."""
    return path.read_text().rpartition(")")[2].split()


def threads_cpu(pid: int) -> float:
    """CPU seconds of the live threads of ``pid`` (user + system)."""
    total = 0
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            fields = stat_fields(task / "stat")
        except FileNotFoundError:  # the thread ended while listed
            continue
        total += int(fields[11]) + int(fields[12])
    return total / TICK


def reaped_children_cpu(pid: int) -> float:
    """CPU seconds of the children ``pid`` has waited for."""
    fields = stat_fields(Path(f"/proc/{pid}/stat"))
    return (int(fields[13]) + int(fields[14])) / TICK


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=6)
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument("--seed", type=int, default=761)
    args = parser.parse_args()

    from repro import run
    from repro.campaign.spec import ScenarioSpec
    from repro.runtime.cluster.template import TEMPLATE

    spec = ScenarioSpec(
        name="live", trainer="guanyu_threaded", runtime="cluster",
        num_workers=4, num_servers=3, declared_byzantine_workers=0,
        declared_byzantine_servers=0, model_quorum=3, gradient_quorum=4,
        gradient_rule="median", model_rule="median", num_steps=args.steps,
        seed=args.seed)
    run(spec.replace(num_steps=2))  # starts the template
    me, template = os.getpid(), TEMPLATE.pid

    rows = []
    for index in range(args.runs):
        before = (threads_cpu(me), threads_cpu(template),
                  reaped_children_cpu(template))
        started = time.perf_counter()
        run(spec.replace(seed=args.seed + index))
        wall = time.perf_counter() - started
        after = (threads_cpu(me), threads_cpu(template),
                 reaped_children_cpu(template))
        supervisor = (after[0] - before[0]) / args.steps
        nodes = (after[1] - before[1] + after[2] - before[2]) / args.steps
        rows.append((wall, supervisor, nodes))
        print(f"run {index}: wall {wall:.3f} s, CPU ms/step supervisor "
              f"{1e3 * supervisor:.2f}, template + nodes {1e3 * nodes:.2f}")

    wall, supervisor, nodes = (statistics.median(column)
                               for column in zip(*rows))
    busy = (supervisor + nodes) * args.steps / wall / os.cpu_count()
    print(f"median: wall {wall:.3f} s, CPU ms/step supervisor "
          f"{1e3 * supervisor:.2f}, template + nodes {1e3 * nodes:.2f}, "
          f"total {1e3 * (supervisor + nodes):.2f}; "
          f"{100 * busy:.0f} % of {os.cpu_count()} CPUs busy")


if __name__ == "__main__":
    main()
