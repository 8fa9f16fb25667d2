"""Seed-sweep campaign — the vectorised engine against the simulator.

Sixteen seeds of the small-scale GuanYu scenario run twice: once as one
multi-replica execution (:func:`repro.batch.run_batched_scenarios`), once
as sixteen runs of the sequential simulator
(:func:`repro.testing.sequential_history` — ``repro.run`` would send each
seed to the vectorised engine as an R = 1 lane, and the comparison would
be that engine with itself).  The histories must be bit-identical and the
batched side at least 5x faster.  Recorded on the 2-vCPU reference guest:
13.3x (0.27 s against 3.60 s, ``docs/performance.md``).

Each side counts with its best of three: one unlucky interval on a shared
runner must not fail the factor with no code change.
"""

import timeit

from repro.batch import run_batched_scenarios
from repro.campaign.spec import ScenarioSpec
from repro.testing import sequential_history

REPLICAS = 16
STEPS = 60
MIN_SPEEDUP = 5.0


def _best_of_three(run):
    """``(best seconds, last result)`` — every repeat computes the same."""
    results = []
    seconds = min(timeit.repeat(lambda: results.append(run()), number=1,
                                repeat=3))
    return seconds, results[-1]


def test_batched_seed_sweep_is_bit_identical_and_five_times_faster():
    specs = [ScenarioSpec(name=f"seed={seed}", seed=seed, num_steps=STEPS)
             for seed in range(REPLICAS)]

    batched_seconds, batched = _best_of_three(
        lambda: run_batched_scenarios(specs))
    sequential_seconds, sequential = _best_of_three(
        lambda: [sequential_history(spec) for spec in specs])

    speedup = sequential_seconds / batched_seconds
    print(f"\ncampaign speedup — R={REPLICAS}, {STEPS} steps, best of 3: "
          f"sequential {sequential_seconds:.2f}s, batched "
          f"{batched_seconds:.2f}s ({speedup:.1f}x)")

    assert len(batched) == len(sequential) == REPLICAS
    for got, expected in zip(batched, sequential):
        assert got.to_dict() == expected.to_dict()
    assert speedup >= MIN_SPEEDUP, (
        f"batched seed sweep only {speedup:.2f}x faster than the simulator "
        f"(required: {MIN_SPEEDUP:.1f}x)")
