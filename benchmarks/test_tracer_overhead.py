"""Tracer overhead — the "<5 % on the batched runtime" budget.

The batched runtime is the hottest loop in the repo (R replicas advance per
step), so it is where tracing overhead would show first.  The same R=16
seed sweep runs untraced and traced (spans on, decision gate off, as in a
``repro --trace`` sweep) and the traced best-of must stay within 5 % of
the untraced one.  The two variants are timed **interleaved** — untraced,
traced, untraced, traced, ... — and each takes its best-of over the
rounds: back-to-back blocks would let a background-load swing on the CI
machine masquerade as tracer overhead (or hide it).
"""

import time

from repro.batch import run_batched_scenarios
from repro.campaign.spec import ScenarioSpec
from repro.obs import Tracer, use_tracer

REPLICAS = 16
REPEATS = 7


def _specs():
    return [ScenarioSpec(name=f"ovh{seed}", seed=seed, num_steps=20,
                         eval_every=10, dataset_size=600,
                         max_eval_samples=64)
            for seed in range(REPLICAS)]


def _traced_run(specs):
    with use_tracer(Tracer()):
        return run_batched_scenarios(specs)


def _interleaved_best_of(specs):
    untraced_seconds = traced_seconds = float("inf")
    baseline = traced = None
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = run_batched_scenarios(specs)
        elapsed = time.perf_counter() - started
        if elapsed < untraced_seconds:
            untraced_seconds, baseline = elapsed, result

        started = time.perf_counter()
        result = _traced_run(specs)
        elapsed = time.perf_counter() - started
        if elapsed < traced_seconds:
            traced_seconds, traced = elapsed, result
    return untraced_seconds, baseline, traced_seconds, traced


def test_tracer_overhead_below_five_percent():
    specs = _specs()
    run_batched_scenarios(specs)  # warm caches (dataset synthesis)

    untraced_seconds, baseline, traced_seconds, traced = (
        _interleaved_best_of(specs))

    overhead = traced_seconds / untraced_seconds
    print(f"\ntracer overhead — R={REPLICAS} batched, best of {REPEATS}: "
          f"untraced {untraced_seconds:.4f}s, traced {traced_seconds:.4f}s "
          f"({overhead:.3f}x)")

    # Zero perturbation first, budget second.
    for traced_history, untraced_history in zip(traced, baseline):
        assert traced_history.to_dict() == untraced_history.to_dict()
    assert overhead < 1.05, (
        f"tracing cost {overhead:.3f}x on the batched runtime "
        f"(budget: 1.05x)")
