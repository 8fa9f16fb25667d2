"""Tier-1 guarantee: tracing is zero-perturbation.

Recording a trace must not change what the traced computation computes:
the equivalence guarantees of the runtimes (sequential↔batched
bit-identity, sequential↔threaded loss-trajectory identity) and plain
traced-vs-untraced runs are re-asserted here with a live tracer — GAR
decision records included, since those recompute selection on the side.
Everything is compared with ``==`` on the serialised histories; nothing
uses a tolerance.  The untraced side of every comparison is the
sequential reference trainer (:func:`repro.testing.sequential_history`),
never the engine under test.
"""

from repro.batch import run_batched_scenarios
from repro.campaign.engine import run_campaign
from repro.campaign.spec import ScenarioSpec
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
