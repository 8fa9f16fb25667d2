"""Observability overhead — the "<5 % on the batched runtime" budget.

The batched runtime is the hottest loop in the repo (R replicas advance per
step), so it is where the cost of observing it would show first.  The same
R=16 seed sweep runs with both sinks off (the ``NullTracer`` /
``NullRegistry`` defaults) and with a live sink installed: a ``Tracer``
(spans on, decision gate off, as in a ``repro --trace`` sweep), a
``MetricsRegistry``, or both — the case :func:`repro.obs.phase` makes
common, since one phase feeds both.  The two variants are timed
**interleaved** — off, on, off, on, ... — and each takes its best-of over
the rounds: back-to-back blocks would let a background-load swing on the
CI machine masquerade as overhead (or hide it).  Bit-identity is asserted
before the budget: a fast-but-perturbing sink would be a worse bug than a
slow one.
"""

import time

import pytest

from repro.batch import run_batched_scenarios
from repro.campaign.spec import ScenarioSpec
from repro.obs import (
    MetricsRegistry,
    NullRegistry,
    NullTracer,
    Tracer,
    use_registry,
    use_tracer,
)

REPLICAS = 16
REPEATS = 7


def _specs():
    # 60 steps make a timed run ~0.2 s on two vCPUs.  On a shared host the
    # best-of-7 ratio spreads by a few per cent either way whatever the run
    # length (isolated, 1 to 5 cases in 30 went over the bound at 20, 60
    # and 120 steps alike), while emitting a phase to both sinks costs
    # ~10 us, well under 1 % of a step.
    return [ScenarioSpec(name=f"ovh{seed}", seed=seed, num_steps=60,
                         eval_every=30, dataset_size=600,
                         max_eval_samples=64)
            for seed in range(REPLICAS)]


def _observed_run(specs, sink):
    tracer = NullTracer() if sink == "registry" else Tracer()
    registry = NullRegistry() if sink == "tracer" else MetricsRegistry()
    with use_tracer(tracer), use_registry(registry):
        return run_batched_scenarios(specs)


def _interleaved_best_of(specs, sink):
    off_seconds = on_seconds = float("inf")
    baseline = observed = None
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = run_batched_scenarios(specs)
        elapsed = time.perf_counter() - started
        if elapsed < off_seconds:
            off_seconds, baseline = elapsed, result

        started = time.perf_counter()
        result = _observed_run(specs, sink)
        elapsed = time.perf_counter() - started
        if elapsed < on_seconds:
            on_seconds, observed = elapsed, result
    return off_seconds, baseline, on_seconds, observed


@pytest.mark.parametrize("sink", ["tracer", "registry", "both"])
def test_obs_overhead_below_five_percent(sink):
    specs = _specs()
    run_batched_scenarios(specs)  # warm caches (dataset synthesis)

    off_seconds, baseline, on_seconds, observed = _interleaved_best_of(
        specs, sink)

    overhead = on_seconds / off_seconds
    print(f"\n{sink} overhead — R={REPLICAS} batched, best of {REPEATS}: "
          f"off {off_seconds:.4f}s, on {on_seconds:.4f}s "
          f"({overhead:.3f}x)")

    # Zero perturbation first, budget second.
    for observed_history, untouched_history in zip(observed, baseline):
        assert observed_history.to_dict() == untouched_history.to_dict()
    assert overhead < 1.05, (
        f"{sink} cost {overhead:.3f}x on the batched runtime "
        f"(budget: 1.05x)")
