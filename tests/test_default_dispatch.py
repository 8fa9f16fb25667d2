"""Tier-1 guarantee: the default path is the vectorised engine, and it is
the sequential simulator bit for bit.

``repro.run`` sends every dense-model GuanYu scenario to the batched
engine as a one-lane group.  The grid below is the perf ledger's
``seq_grid`` workload (``bench/workloads.py``): 4 GARs x 4 threats x 2
delay models x 2 environments, generated, not hand-picked — every cell
must equal :func:`repro.testing.sequential_history` on the full serialised
history and must really have run on the engine.  The generated dispatch
oracle draws across every trainer and runtime: what ``run`` reports is
what ``resolve_runtime`` promised.  The rest pins that nothing falls back
to another engine, and the store address.
"""

import itertools

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.batch import (
    BatchedExecutionError,
    BatchedGuanYuTrainer,
    spec_supports_batching,
)
from repro.campaign import (
    ResultStore,
    ScenarioSpec,
    available_trainers,
    run_campaign,
)
from repro.faults import FaultSchedule
from repro.obs import Tracer
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
    def test_run_equals_the_sequential_simulator(self, spec):
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


class TestFallbackContract:
    def test_conv_model_runs_sequential(self):
        spec = ScenarioSpec(name="conv", model="small_cnn", dataset="images",
                            image_size=8, num_steps=2, eval_every=1,
                            dataset_size=200, max_eval_samples=32)
        assert resolve_runtime(spec) == "sequential"
        result = run(spec)
        assert (result.runtime, result.status) == ("sequential", "ran")
        assert result.history.to_dict() == sequential_history(spec).to_dict()

    def test_quorum_starved_run_keeps_the_canonical_error(self):
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
            self, monkeypatch):
        def broken_step(self, step_index):
            raise ValueError("engine bug")

        monkeypatch.setattr(BatchedGuanYuTrainer, "step", broken_step)
        with pytest.raises(ValueError, match="engine bug"):
            run(GRID[0].values[0])

    def test_tracer_state_does_not_change_the_engine(self):
        spec = GRID[0].values[0]
        assert run(spec).runtime == "batched"
        assert run(spec, tracer=Tracer(record_decisions=True)).runtime \
            == "batched"


#: a shape every trainer admits: Multi-Krum's 2f̄ + 3 = 5 inputs fit both
#: the gradient quorum (n̄ − f̄) and the single server's n̄ = 6 workers
SHAPE = dict(num_workers=6, num_servers=3, declared_byzantine_workers=1,
             declared_byzantine_servers=0, dataset_size=200, eval_every=2,
             max_eval_samples=32, batch_size=8)
MODELS = ({"model": "softmax"}, {"model": "mlp"},
          {"model": "small_cnn", "dataset": "images", "image_size": 8})
#: worker/5 sits steps 1-2 out; the other five still fill the quorum
CRASH = {"events": [{"step": 1, "kind": "crash", "nodes": ["worker/5"]},
                    {"step": 3, "kind": "recover", "nodes": ["worker/5"]}]}
EXTRAS = ({}, {"faults": CRASH}, {"worker_attack": "sign_flip"},
          {"adversary": "collusion"})
#: process clusters one session starts, at 0.15-0.5 s each
CLUSTER_RUNS = 2


def admissible(spec: ScenarioSpec) -> bool:
    try:
        spec.validate()
    except ValueError:
        return False
    return True


@st.composite
def dispatch_specs(draw) -> ScenarioSpec:
    return ScenarioSpec(
        name="drawn", trainer=draw(st.sampled_from(available_trainers())),
        runtime=draw(st.sampled_from(
            [None, None, "batched", "threaded", "cluster"])),
        # half the draws keep the one rule single_server_krum admits
        gradient_rule=draw(st.just("multi_krum") | st.sampled_from(
            ["median", "mean", "geometric_median"])),
        num_steps=draw(st.integers(1, 4)), seed=draw(st.integers(0, 2**16)),
        **SHAPE, **draw(st.sampled_from(MODELS)),
        **draw(st.sampled_from(EXTRAS)))


class TestDispatchOracle:
    cluster_runs = itertools.count()

    # No max_examples here: the weekly workflow runs this test under the
    # "weekly" profile of tests/conftest.py, ten times the default budget.
    @settings(deadline=None)
    @given(dispatch_specs().filter(admissible))
    def test_run_reports_the_resolved_runtime(self, spec):
        kind = resolve_runtime(spec)
        event(f"{spec.trainer} on {kind}")
        assert (kind == "batched") == spec_supports_batching(spec)
        if kind == "cluster" and next(self.cluster_runs) >= CLUSTER_RUNS:
            return  # one more process cluster would blow the tier-1 budget
        result = run(spec)
        assert result.runtime == kind
        if kind == "batched":
            assert result.history.to_dict() \
                == sequential_history(spec).to_dict()

    def test_cluster_on_an_unbindable_host_reports_threaded(
            self, monkeypatch):
        monkeypatch.setattr(
            "repro.runtime.cluster.supervisor.cluster_available",
            lambda: False)
        spec = ScenarioSpec(name="no-sockets", trainer="guanyu_threaded",
                            runtime="cluster", num_steps=2, **SHAPE)
        assert resolve_runtime(spec) == "threaded"
        assert run(spec).runtime == "threaded"


#: ``ScenarioSpec(trainer="guanyu_threaded").to_dict()`` recorded while the
#: real clock was a trainer of its own
LEGACY_THREADED = {
    "name": "scenario", "trainer": "guanyu_threaded", "num_workers": 9,
    "num_servers": 6, "declared_byzantine_workers": 2,
    "declared_byzantine_servers": 1, "model_quorum": None,
    "gradient_quorum": None, "gradient_rule": "multi_krum",
    "model_rule": "median", "worker_attack": None,
    "num_attacking_workers": None, "server_attack": None,
    "num_attacking_servers": None, "adversary": None,
    "delay_model": "uniform", "delay_kwargs": {}, "cost_model": "grid5000",
    "jitter": 0.0, "quorum_timeout": 60.0, "runtime": None, "kernels": None,
    "faults": None, "hetero": None, "dataset": "blobs", "dataset_size": 800,
    "image_size": 8, "model": "softmax", "batch_size": 16,
    "learning_rate": 0.05, "sharding": "iid",
    "external_communication": False, "num_steps": 60, "eval_every": 10,
    "max_eval_samples": 256, "billed_parameters": 1756426, "seed": 42}
#: (fields of the legacy spelling, the same spec in protocol + engine,
#: ``to_dict()``, ``spec_hash()``) recorded at the same commit
LEGACY_ADDRESSES = [
    ({}, {"runtime": "threaded"}, LEGACY_THREADED,
     "cb42d2d6dcdcb8511cdeaaed1245e3a2db44855fbac8711979ab84d00fc7acfa"),
    ({"runtime": "cluster"}, {"runtime": "cluster"},
     {**LEGACY_THREADED, "runtime": "cluster"},
     "4fd6ee10b62390fa08d69fc0645257b0ac2fffcf34e854df058134ffd13afd32"),
    ({"jitter": 0.01, "quorum_timeout": 5.0},
     {"runtime": "threaded", "jitter": 0.01, "quorum_timeout": 5.0},
     {**LEGACY_THREADED, "jitter": 0.01, "quorum_timeout": 5.0},
     "a143d1cbb484c41f982b23ab8d1cfae91f8ce4c9b99fc65287c1ea6f3a7821a0"),
]


class TestStoreAddress:
    def test_default_spec_hash_is_the_parents(self):
        assert ScenarioSpec().spec_hash() == PARENT_DEFAULT_HASH

    @pytest.mark.parametrize("legacy, split, payload, address",
                             LEGACY_ADDRESSES)
    def test_real_clock_specs_keep_the_legacy_address(
            self, legacy, split, payload, address):
        stored = ScenarioSpec(trainer="guanyu_threaded", **legacy)
        spelled = ScenarioSpec(trainer="guanyu", **split)
        assert stored == spelled
        assert (stored.trainer, stored.runtime) == ("guanyu", split["runtime"])
        for spec in (stored, spelled):
            assert spec.validate() is spec
            assert spec.to_dict() == payload
            assert spec.spec_hash() == address
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_the_legacy_spelling_stays_off_the_simulated_clock(self):
        with pytest.raises(ValueError, match="guanyu_threaded"):
            ScenarioSpec(trainer="guanyu_threaded",
                         runtime="batched").validate()
        threaded = ScenarioSpec(trainer="guanyu_threaded", **SHAPE)
        assert not spec_supports_batching(threaded)
        assert threaded.replace(runtime=None) == threaded
        assert threaded.replace(trainer="guanyu") == threaded
        assert threaded.replace(trainer="guanyu", runtime=None).runtime \
            is None
        with pytest.raises(TypeError, match="simulated clock"):
            sequential_history(threaded)

    def test_engine_results_resume_under_the_same_address(self, tmp_path):
        # An entry the sequential simulator wrote (a store from before the
        # dispatch changed) is a cache hit for today's default run.
        spec = GRID[5].values[0]
        store = ResultStore(tmp_path / "store")
        store.put(spec, sequential_history(spec))
        result = run(spec, store=store)
        assert result.status == "cached"
        assert result.store_key == spec.spec_hash()
