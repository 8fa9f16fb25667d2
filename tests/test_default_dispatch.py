"""Tier-1 guarantee: the default path is the vectorised engine, and it is
the sequential simulator bit for bit.

``repro.run`` sends every dense-model GuanYu scenario to the batched
engine as a one-lane group.  The grid below is the perf ledger's
``seq_grid`` workload (``bench/workloads.py``): 4 GARs x 4 threats x 2
delay models x 2 environments, generated, not hand-picked — every cell
must equal :func:`repro.testing.sequential_history` on the full serialised
history and must really have run on the engine.  The rest pins the
fallback contract and the store address.
"""

import itertools

import pytest

from repro.batch import (
    BatchedExecutionError,
    BatchedGuanYuTrainer,
    BatchingUnsupported,
)
from repro.campaign import ResultStore, ScenarioSpec, run_campaign
from repro.faults import FaultSchedule
from repro.obs import MetricsRegistry, Tracer, use_registry
from repro.runtime import resolve_runtime, run
from repro.testing import sequential_history

GARS = ("multi_krum", "median", "trimmed_mean", "geometric_median")
THREATS = (
    {},
    {"worker_attack": "sign_flip"},
    {"worker_attack": "little_is_enough", "server_attack": "corrupted_model"},
    {"adversary": "collusion"},
)
DELAYS = ({}, {"delay_model": "exponential"})
STEPS = 6
# The ledger's environment, its fault steps scaled into a 6-step run so
# the crash, the recovery and the slowdown all happen.
ENVIRONMENTS = (
    {},
    {"faults": {"events": [
        {"step": 2, "kind": "crash", "nodes": ["ps/5"]},
        {"step": 4, "kind": "recover", "nodes": ["ps/5"]},
        {"step": 1, "kind": "slowdown", "nodes": ["worker/0"],
         "factor": 3.0}]},
     "hetero": {"partition": "dirichlet", "alpha": 0.5}},
)

GRID = [
    pytest.param(
        ScenarioSpec(name=f"{rule}-t{t}-d{d}-e{e}", gradient_rule=rule,
                     num_steps=STEPS, eval_every=2,
                     seed=1000 + 64 * t + 16 * d + 4 * e + g,
                     **THREATS[t], **DELAYS[d], **ENVIRONMENTS[e]),
        id=f"{rule}-t{t}-d{d}-e{e}")
    for (g, rule), t, d, e in itertools.product(
        enumerate(GARS), range(4), range(2), range(2))
]

#: ``ScenarioSpec().spec_hash()`` recorded at the commit before the
#: dispatch changed: the runtime stays out of the address when it is None.
PARENT_DEFAULT_HASH = \
    "f4f9a6fcf4cd36fd58a1805cc69feaab65fc495faa2537e8ed7daaca0ca9aa09"


class TestGeneratedGrid:
    def test_grid_is_the_ledgers(self):
        assert len(GRID) == 64
        assert len({param.values[0].spec_hash() for param in GRID}) == 64

    @pytest.mark.parametrize("spec", GRID)
    def test_run_equals_the_sequential_simulator(self, spec, no_fallbacks):
        result = run(spec)
        assert result.runtime == "batched"
        assert result.history.to_dict() == sequential_history(spec).to_dict()


def starved_spec() -> ScenarioSpec:
    """5 % message loss starves ps/1's phase-3 quorum at step 1."""
    return ScenarioSpec(name="starved", seed=0, num_steps=14, eval_every=3,
                        dataset_size=400, max_eval_samples=64,
                        faults=FaultSchedule(drop_rate=0.05).to_dict())


#: what ``starved_spec()`` dies of — the sequential simulator's sentence,
#: which the engine's own error repeats word for word
STARVED_ERROR = ("ps/1 needed a quorum of 5 'model_to_server' messages for "
                 "step 1 but only 4 distinct senders delivered")


def unsupported(specs):
    raise BatchingUnsupported("injected")


class TestFallbackContract:
    def test_conv_model_runs_sequential(self):
        spec = ScenarioSpec(name="conv", model="small_cnn", dataset="images",
                            image_size=8, num_steps=2, eval_every=1,
                            dataset_size=200, max_eval_samples=32)
        assert resolve_runtime(spec) == "sequential"
        result = run(spec)
        assert (result.runtime, result.status) == ("sequential", "ran")
        assert result.history.to_dict() == sequential_history(spec).to_dict()

    def test_quorum_starved_run_keeps_the_canonical_error(self, no_fallbacks):
        spec = starved_spec()
        assert resolve_runtime(spec) == "batched"
        with pytest.raises(BatchedExecutionError) as raised:
            run(spec)
        assert str(raised.value) == STARVED_ERROR
        with pytest.raises(RuntimeError) as simulated:
            sequential_history(spec)
        assert str(simulated.value) == STARVED_ERROR
        outcome = run_campaign([spec]).outcomes[0]
        assert (outcome.status, outcome.error) == (
            "failed", f"BatchedExecutionError: {STARVED_ERROR}")
        # The engine failed it; nothing re-ran on the simulator.
        assert "collect_quorum" not in outcome.traceback

    def test_engine_errors_surface_instead_of_a_silent_rerun(
            self, monkeypatch, no_fallbacks):
        def broken_step(self, step_index):
            raise ValueError("engine bug")

        monkeypatch.setattr(BatchedGuanYuTrainer, "step", broken_step)
        with pytest.raises(ValueError, match="engine bug"):
            run(GRID[0].values[0])

    def test_fallback_leaves_a_trace_event(self, monkeypatch):
        monkeypatch.setattr("repro.batch.run_batched_scenarios", unsupported)
        tracer = Tracer()
        result = run(GRID[0].values[0], tracer=tracer)
        assert result.runtime == "sequential"
        (event,) = [record for record in tracer.events()
                    if record.name == "runtime.fallback"]
        assert event.attrs["scenario"] == GRID[0].values[0].name
        assert event.attrs["reason"].startswith("BatchingUnsupported")

    def test_fallback_is_counted_by_exception_class(self, monkeypatch):
        monkeypatch.setattr("repro.batch.run_batched_scenarios", unsupported)
        registry = MetricsRegistry()
        with use_registry(registry):
            run(GRID[0].values[0])
        assert registry.counter("repro_runtime_fallback_total").series == {
            (("reason", "BatchingUnsupported"),): 1.0}

    def test_explicit_batched_runtime_does_not_fall_back(self, monkeypatch):
        monkeypatch.setattr("repro.batch.run_batched_scenarios", unsupported)
        with pytest.raises(BatchingUnsupported):
            run(GRID[0].values[0].replace(runtime="batched"))

    def test_tracer_state_does_not_change_the_engine(self):
        spec = GRID[0].values[0]
        assert run(spec).runtime == "batched"
        assert run(spec, tracer=Tracer(record_decisions=True)).runtime \
            == "batched"


class TestStoreAddress:
    def test_default_spec_hash_is_the_parents(self):
        assert ScenarioSpec().spec_hash() == PARENT_DEFAULT_HASH

    def test_engine_results_resume_under_the_same_address(self, tmp_path):
        # An entry the sequential simulator wrote (a store from before the
        # dispatch changed) is a cache hit for today's default run.
        spec = GRID[5].values[0]
        store = ResultStore(tmp_path / "store")
        store.put(spec, sequential_history(spec))
        result = run(spec, store=store)
        assert result.status == "cached"
        assert result.store_key == spec.spec_hash()
