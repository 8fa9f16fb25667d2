"""Tier-1 guarantee: tracing is zero-perturbation.

Recording a trace must not change what the traced computation computes:
the equivalence guarantees of the runtimes (sequential↔batched
bit-identity, sequential↔threaded loss-trajectory identity) and plain
traced-vs-untraced runs are re-asserted here with a live tracer — GAR
decision records included, which read the selection off the rule's own
call.
Everything is compared with ``==`` on the serialised histories; nothing
uses a tolerance.  The untraced side of every comparison is the
sequential reference trainer (:func:`repro.testing.sequential_history`),
never the engine under test.
"""

import pytest

from repro.batch import run_batched_scenarios
from repro.campaign.engine import run_campaign
from repro.campaign.spec import ScenarioSpec
from repro.kernels import active_backend
from repro.obs import MetricsRegistry, Tracer, use_registry, use_tracer
from repro.runtime import run
from repro.testing import sequential_history

SEEDS = (0, 1, 7)


def tiny_spec(**overrides) -> ScenarioSpec:
    base = dict(name="tiny", num_workers=6, num_servers=3,
                declared_byzantine_workers=1, declared_byzantine_servers=0,
                num_steps=4, eval_every=2, dataset_size=300,
                max_eval_samples=64)
    base.update(overrides)
    return ScenarioSpec(**base)


def traced(fn, **tracer_kwargs):
    """Run ``fn`` under a fresh recording tracer; return (result, tracer)."""
    tracer = Tracer(record_decisions=True, **tracer_kwargs)
    with use_tracer(tracer):
        result = fn()
    return result, tracer


def decision_rows(tracer, name, scenario=None):
    """``(step, node, attrs)`` of the ``name`` records (of ``scenario``'s
    lane only, if given), without the batched engine's lane attributes."""
    rows = []
    for record in tracer.events():
        if record.name == name and scenario in (
                None, record.attrs.get("scenario")):
            attrs = dict(record.attrs)
            attrs.pop("replica", None)
            attrs.pop("scenario", None)
            rows.append((record.step, record.node, attrs))
    return rows


class TestSequentialUnperturbed:
    def test_traced_history_equals_untraced(self):
        spec = tiny_spec(worker_attack="random_gradient")
        baseline = sequential_history(spec)
        history, tracer = traced(lambda: run(spec).history)
        assert history.to_dict() == baseline.to_dict()
        # ... and the trace actually recorded the run (not vacuous).
        spans = {record.name for record in tracer.events()
                 if record.kind == "span"}
        assert "batch.step.aggregate" in spans
        decisions = [record for record in tracer.events()
                     if record.name == "batch.gar.decision"]
        assert decisions, "record_decisions=True must emit decision records"

    def test_traced_reference_trainer_equals_untraced(self):
        # The fallback / conv-model engine keeps the same contract.
        spec = tiny_spec(worker_attack="random_gradient")
        baseline = sequential_history(spec)
        history, tracer = traced(lambda: sequential_history(spec))
        assert history.to_dict() == baseline.to_dict()
        names = {record.name for record in tracer.events()}
        assert {"seq.step.aggregate", "seq.gar.decision"} <= names

    @pytest.mark.parametrize("spec", [
        tiny_spec(name="vanilla", trainer="vanilla", gradient_rule="mean",
                  worker_attack="random_gradient", num_attacking_workers=1),
        tiny_spec(name="krum", trainer="single_server_krum", num_workers=9,
                  declared_byzantine_workers=2),
    ], ids=["vanilla", "single_server_krum"])
    def test_traced_baseline_equals_untraced(self, spec):
        # the baselines walk GuanYu's first two routes on the same step
        baseline = run(spec).history
        history, tracer = traced(lambda: run(spec).history)
        assert history.to_dict() == baseline.to_dict()
        spans = {record.name for record in tracer.events()
                 if record.kind == "span"}
        assert {f"seq.step.{name}" for name in (
            "broadcast", "compute", "gather", "aggregate")} <= spans
        assert "seq.step.apply" not in spans

    def test_both_engines_record_the_same_decisions(self):
        # One helper emits the records for both engines: same selections,
        # same attacker positions, same scores, per step and server.
        spec = tiny_spec(worker_attack="random_gradient")

        def decisions(fn, name):
            _, tracer = traced(fn)
            rows = []
            for record in tracer.events():
                if record.name == name:
                    attrs = dict(record.attrs)
                    attrs.pop("replica", None)
                    attrs.pop("scenario", None)
                    rows.append((record.step, record.node, attrs))
            return rows

        engine = decisions(lambda: run(spec), "batch.gar.decision")
        reference = decisions(lambda: sequential_history(spec),
                              "seq.gar.decision")
        assert engine and engine == reference

    def test_tiny_ring_buffer_still_unperturbed(self):
        # Heavy truncation exercises the drop path mid-run.
        spec = tiny_spec()
        baseline = sequential_history(spec)
        history, tracer = traced(lambda: run(spec).history, capacity=8)
        assert history.to_dict() == baseline.to_dict()
        assert tracer.dropped > 0


class TestDecisionsCostNoGarCall:
    """A decision record reads the rule's own call: a run with records on
    computes exactly the distance matrices an untraced run computes."""

    @pytest.mark.parametrize("spec", [
        tiny_spec(gradient_rule="multi_krum", num_steps=5,
                  worker_attack="sign_flip"),
        tiny_spec(gradient_rule="bulyan", num_workers=9, gradient_quorum=7,
                  num_steps=5, worker_attack="sign_flip"),
    ], ids=["multi_krum", "bulyan"])
    def test_records_add_no_distance_kernel_call(self, spec, monkeypatch):
        backend = active_backend()
        kernel = backend.pairwise_squared_distances_batched
        calls = []

        def counting(stacked):
            calls.append(stacked.shape)
            return kernel(stacked)
        monkeypatch.setattr(backend, "pairwise_squared_distances_batched",
                            counting)
        baseline = run(spec).history
        untraced = len(calls)
        history, tracer = traced(lambda: run(spec).history)
        assert untraced and len(calls) == 2 * untraced
        assert history.to_dict() == baseline.to_dict()
        assert any(record.name == "batch.gar.decision"
                   for record in tracer.events())


class TestBatchedBitIdentityTraced:
    def test_batched_equals_sequential_with_tracing_on(self):
        specs = [ScenarioSpec(name=f"s{seed}", seed=seed, num_steps=8,
                              eval_every=3, dataset_size=400,
                              max_eval_samples=64) for seed in SEEDS]
        sequential = [sequential_history(spec) for spec in specs]
        batched, tracer = traced(lambda: run_batched_scenarios(specs))
        for got, expected in zip(batched, sequential):
            assert got.to_dict() == expected.to_dict()
        spans = {record.name for record in tracer.events()
                 if record.kind == "span"}
        assert {"batch.step.broadcast", "batch.step.compute",
                "batch.step.gather", "batch.step.aggregate",
                "batch.step.apply"} <= spans

    def test_mixed_rule_group_records_each_lanes_own_decisions(self):
        # One group, one seed, four rule pairs: every lane's history and
        # decision records are its own sequential run's.
        specs = [tiny_spec(name=f"{gradient}-{model}", seed=3,
                           gradient_rule=gradient, model_rule=model,
                           worker_attack="sign_flip")
                 for gradient, model in (("multi_krum", "median"),
                                         ("median", "median"),
                                         ("multi_krum", "mean"),
                                         ("trimmed_mean", "mean"))]
        baseline = run_batched_scenarios(specs)
        histories, tracer = traced(lambda: run_batched_scenarios(specs))
        for spec, history, untraced in zip(specs, histories, baseline):
            expected, reference = traced(lambda: sequential_history(spec))
            assert history.to_dict() == untraced.to_dict() \
                == expected.to_dict()
            lane = decision_rows(tracer, "batch.gar.decision", spec.name)
            assert lane and lane == decision_rows(reference,
                                                  "seq.gar.decision")
            assert {attrs["rule"] for _, _, attrs in lane} \
                == {spec.gradient_rule}

    def test_traced_batched_equals_untraced_batched(self):
        specs = [ScenarioSpec(name=f"b{seed}", seed=seed, num_steps=6,
                              eval_every=2, dataset_size=300,
                              max_eval_samples=64,
                              worker_attack="random_gradient",
                              declared_byzantine_workers=1)
                 for seed in SEEDS]
        baseline = run_batched_scenarios(specs)
        histories, _ = traced(lambda: run_batched_scenarios(specs))
        for history, expected in zip(histories, baseline):
            assert history.to_dict() == expected.to_dict()


class TestThreadedLossTrajectoryTraced:
    def test_traced_threaded_losses_equal_untraced(self):
        # Full quorums: every message is awaited, so the loss trajectory is
        # deterministic despite real threads — partial quorums race on
        # arrival order and differ run-to-run even without tracing.
        spec = tiny_spec(trainer="guanyu_threaded", num_steps=3,
                         declared_byzantine_workers=0,
                         gradient_quorum=6, model_quorum=3,
                         quorum_timeout=30.0)

        def losses(history):
            return [record.train_loss for record in history.records]

        baseline = run(spec).history
        history, tracer = traced(lambda: run(spec).history)
        assert losses(history) == losses(baseline)
        spans = {record.name for record in tracer.events()
                 if record.kind == "span"}
        assert "thr.worker.compute" in spans
        assert "thr.server.aggregate" in spans


class TestTelemetryUnperturbed:
    """The metrics registry honours the same zero-perturbation contract."""

    def test_sequential_with_telemetry_equals_plain(self):
        spec = tiny_spec(worker_attack="random_gradient")
        baseline = sequential_history(spec)
        registry = MetricsRegistry()
        with use_registry(registry), \
                use_tracer(Tracer(record_decisions=True)):
            history = run(spec).history
        assert history.to_dict() == baseline.to_dict()
        # ... and the registry actually measured the run (not vacuous).
        stats = registry.histogram("repro_step_phase_seconds") \
            .stats(runtime="batch", phase="aggregate")
        assert stats is not None and stats["count"] == spec.num_steps

    def test_batched_equals_sequential_with_telemetry_on(self):
        specs = [ScenarioSpec(name=f"t{seed}", seed=seed, num_steps=8,
                              eval_every=3, dataset_size=400,
                              max_eval_samples=64) for seed in SEEDS]
        sequential = [sequential_history(spec) for spec in specs]
        registry = MetricsRegistry()
        with use_registry(registry):
            batched = run_batched_scenarios(specs)
        for got, expected in zip(batched, sequential):
            assert got.to_dict() == expected.to_dict()
        assert registry.histogram("repro_step_phase_seconds") \
            .stats(runtime="batch", phase="compute")["count"] == 8

    def test_threaded_losses_with_telemetry_equal_plain(self):
        # Full quorums, as in the traced variant above: deterministic loss
        # trajectory despite real threads.
        spec = tiny_spec(trainer="guanyu_threaded", num_steps=3,
                         declared_byzantine_workers=0,
                         gradient_quorum=6, model_quorum=3,
                         quorum_timeout=30.0)

        def losses(history):
            return [record.train_loss for record in history.records]

        baseline = run(spec).history
        registry = MetricsRegistry()
        with use_registry(registry):
            history = run(spec).history
        assert losses(history) == losses(baseline)
        assert registry.histogram("repro_step_phase_seconds") \
            .stats(runtime="threads", phase="compute") is not None


class TestCampaignUnperturbed:
    def test_traced_campaign_histories_equal_untraced(self):
        scenarios = [tiny_spec(name=f"c{seed}", seed=seed)
                     for seed in (0, 1)]
        baseline = run_campaign(scenarios, name="plain")
        result, tracer = traced(
            lambda: run_campaign(scenarios, name="traced"))
        for outcome, expected in zip(result.outcomes, baseline.outcomes):
            assert outcome.history.to_dict() == expected.history.to_dict()
        assert tracer.counters().get("campaign.cache_miss") == 2
        events = {record.name for record in tracer.events()
                  if record.kind == "event"}
        assert "campaign.scenario" in events
