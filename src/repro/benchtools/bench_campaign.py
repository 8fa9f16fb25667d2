"""Seed-sweep campaign benchmark: batched runtime vs sequential execution.

Times ``R`` seeds of the small-scale GuanYu scenario twice — once as one
vectorised multi-replica execution (:mod:`repro.batch`), once as ``R``
runs of the sequential simulator
(:func:`repro.testing.sequential_history`: ``repro.run`` would send each
seed to the vectorised engine as an R = 1 lane, and the gate would compare
that engine with itself) — verifies the histories are bit-identical, and
writes the result as ``BENCH_campaign.json``.  CI uploads the file as an
artifact on every run, populating the repository's performance trajectory;
``--min-speedup`` turns it into a gate.

``--lanes`` shards the batched side's replica lanes over a process pool
and ``--kernel-backend`` selects the :mod:`repro.kernels` backend for both
sides; the report records both (plus the host's core count) so the
artifact is self-describing.

Usage::

    python -m repro.benchtools.bench_campaign --replicas 16 \
        --output BENCH_campaign.json --min-speedup 5.0
    python -m repro.benchtools.bench_campaign --replicas 16 --lanes 4 \
        --kernel-backend numpy-opt --output BENCH_campaign_lanes.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from repro.benchtools.util import best_of, machine_metadata


def run_benchmark(replicas: int = 16, steps: int = 60, repeats: int = 1,
                  lanes: Optional[int] = None,
                  kernel_backend: Optional[str] = None) -> Dict:
    """Time the batched vs sequential seed sweep; returns the report dict.

    ``repeats > 1`` times each side that many times and keeps the **best**
    run per side (see :func:`repro.benchtools.util.best_of`), so a single
    unlucky timing on a shared CI runner cannot trip the ``--min-speedup``
    gate with no code change.  ``lanes`` and ``kernel_backend`` select
    lane sharding and the kernel backend for the batched side (the
    backend also applies to the sequential side — both must stay
    bit-identical regardless).
    """
    from repro.batch import run_batched_scenarios
    from repro.campaign.spec import ScenarioSpec
    from repro.kernels import active_backend, use_backend
    from repro.testing import sequential_history

    repeats = max(repeats, 1)
    specs = [ScenarioSpec(name=f"seed={seed}", seed=seed, num_steps=steps)
             for seed in range(replicas)]

    with use_backend(kernel_backend):
        backend_name = active_backend().name
        batched_seconds, batched = best_of(
            repeats, lambda: run_batched_scenarios(specs, lanes=lanes))
        sequential_seconds, sequential = best_of(
            repeats, lambda: [sequential_history(spec) for spec in specs])

    bit_identical = all(got.to_dict() == expected.to_dict()
                        for got, expected in zip(batched, sequential))

    return {
        "benchmark": "campaign_seed_sweep",
        "scale": "small",
        "scenario": {"trainer": "guanyu", "model": "softmax",
                     "num_steps": steps},
        "replicas": replicas,
        "repeats": repeats,
        "lanes": lanes if lanes else 1,
        "kernel_backend": backend_name,
        "sequential_seconds": sequential_seconds,
        "batched_seconds": batched_seconds,
        "speedup": sequential_seconds / batched_seconds,
        "sequential_seconds_per_replica": sequential_seconds / replicas,
        "batched_seconds_per_replica": batched_seconds / replicas,
        "bit_identical": bit_identical,
        "machine": machine_metadata(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.benchtools.bench_campaign",
        description="Benchmark the batched seed-sweep runtime vs "
                    "sequential execution.")
    parser.add_argument("--replicas", type=int, default=16,
                        help="seeds per sweep (default 16)")
    parser.add_argument("--steps", type=int, default=60,
                        help="training steps per scenario (default 60)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="timing rounds per side; the best round counts "
                             "(use >1 on noisy shared runners)")
    parser.add_argument("--lanes", type=int, default=None,
                        help="shard the batched side's replica lanes over "
                             "this many worker processes (default: single "
                             "process)")
    parser.add_argument("--kernel-backend", default=None,
                        help="kernel backend for both sides (default: the "
                             "process default, see repro.kernels)")
    parser.add_argument("--output", default="BENCH_campaign.json",
                        help="where to write the JSON report")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail (exit 1) when the batched speedup falls "
                             "below this factor")
    args = parser.parse_args(argv)

    report = run_benchmark(replicas=args.replicas, steps=args.steps,
                           repeats=args.repeats, lanes=args.lanes,
                           kernel_backend=args.kernel_backend)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"bench-campaign: R={report['replicas']} steps="
          f"{report['scenario']['num_steps']} lanes={report['lanes']} "
          f"backend={report['kernel_backend']}: sequential "
          f"{report['sequential_seconds']:.2f}s, batched "
          f"{report['batched_seconds']:.2f}s, speedup "
          f"{report['speedup']:.1f}x, bit_identical="
          f"{report['bit_identical']} -> {args.output}")

    if not report["bit_identical"]:
        print("bench-campaign: batched histories are NOT bit-identical to "
              "sequential execution", file=sys.stderr)
        return 1
    if args.min_speedup is not None and report["speedup"] < args.min_speedup:
        print(f"bench-campaign: speedup {report['speedup']:.2f}x below the "
              f"required {args.min_speedup:.2f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
