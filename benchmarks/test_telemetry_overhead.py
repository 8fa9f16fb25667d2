"""Telemetry overhead — the "<5 % on the batched runtime" budget.

Mirror of ``test_tracer_overhead.py`` for the metrics registry: the same
R=16 seed sweep runs with telemetry off (the ``NullRegistry`` default) and
with a live :class:`MetricsRegistry` installed, interleaved — off, on,
off, on, ... — and each variant takes its best-of over the rounds so a
background-load swing on the CI machine cannot masquerade as telemetry
overhead (or hide it).  Bit-identity is asserted before the budget: a
fast-but-perturbing registry would be a worse bug than a slow one.
"""

import time

from repro.batch import run_batched_scenarios
from repro.campaign.spec import ScenarioSpec
from repro.obs import MetricsRegistry, use_registry

REPLICAS = 16
REPEATS = 7


def _specs():
    return [ScenarioSpec(name=f"tel{seed}", seed=seed, num_steps=20,
                         eval_every=10, dataset_size=600,
                         max_eval_samples=64)
            for seed in range(REPLICAS)]


def _telemetry_run(specs):
    with use_registry(MetricsRegistry()):
        return run_batched_scenarios(specs)


def _interleaved_best_of(specs):
    off_seconds = on_seconds = float("inf")
    baseline = measured = None
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = run_batched_scenarios(specs)
        elapsed = time.perf_counter() - started
        if elapsed < off_seconds:
            off_seconds, baseline = elapsed, result

        started = time.perf_counter()
        result = _telemetry_run(specs)
        elapsed = time.perf_counter() - started
        if elapsed < on_seconds:
            on_seconds, measured = elapsed, result
    return off_seconds, baseline, on_seconds, measured


def test_telemetry_overhead_below_five_percent():
    specs = _specs()
    run_batched_scenarios(specs)  # warm caches (dataset synthesis)

    off_seconds, baseline, on_seconds, measured = _interleaved_best_of(specs)

    overhead = on_seconds / off_seconds
    print(f"\ntelemetry overhead — R={REPLICAS} batched, best of {REPEATS}: "
          f"off {off_seconds:.4f}s, on {on_seconds:.4f}s "
          f"({overhead:.3f}x)")

    # Zero perturbation first, budget second.
    for measured_history, untouched_history in zip(measured, baseline):
        assert measured_history.to_dict() == untouched_history.to_dict()
    assert overhead < 1.05, (
        f"telemetry cost {overhead:.3f}x on the batched runtime "
        f"(budget: 1.05x)")
