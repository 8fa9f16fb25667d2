"""Tier-1 guarantee: the batched runtime is bit-identical per seed.

Every scenario family the batched runtime claims to support is executed
both ways — one vectorised multi-replica run vs per-seed sequential
simulations — and the **entire** serialised histories must be equal:
losses, accuracies, simulated clocks, phase durations, server spreads and
config metadata.  Nothing is compared with a tolerance; ``==`` on the
``to_dict()`` forms is the whole assertion.
"""

import numpy as np
import pytest

from repro.adversary.attacks import LabelFlipPoisoning
from repro.adversary.engine import AdversaryWorkerAttack
from repro.batch import (
    BatchedGuanYuTrainer,
    BatchingUnsupported,
    run_batched_scenarios,
    spec_supports_batching,
)
from repro.campaign.engine import run_campaign
from repro.campaign.spec import (
    AttackSpec,
    ScenarioSpec,
    available_delay_models,
)
from repro.campaign.store import ResultStore
from repro.data import DataLoader
from repro.faults import FaultEvent, FaultSchedule
from repro.runtime import resolve_runtime, run
from repro.testing import sequential_history

SEEDS = (0, 1, 7)


def _small(**overrides):
    """A quick scenario (seconds-scale test budget)."""
    base = dict(num_steps=8, eval_every=3, dataset_size=400,
                max_eval_samples=64)
    base.update(overrides)
    return base


def assert_bit_identical(specs):
    batched = run_batched_scenarios(specs)
    sequential = [sequential_history(spec) for spec in specs]
    for got, expected in zip(batched, sequential):
        assert got.to_dict() == expected.to_dict()
    return batched


class TestEquivalence:
    def test_plain_softmax(self):
        assert_bit_identical([ScenarioSpec(name=f"s{seed}", seed=seed,
                                           **_small()) for seed in SEEDS])

    def test_mlp_model(self):
        assert_bit_identical([ScenarioSpec(name=f"m{seed}", seed=seed,
                                           model="mlp", **_small())
                              for seed in SEEDS])

    def test_worker_attack_with_rng(self):
        assert_bit_identical([
            ScenarioSpec(name=f"w{seed}", seed=seed,
                         worker_attack="random_gradient", **_small())
            for seed in SEEDS])

    def test_omniscient_worker_attack(self):
        assert_bit_identical([
            ScenarioSpec(name=f"l{seed}", seed=seed,
                         worker_attack="little_is_enough", **_small())
            for seed in SEEDS])

    def test_equivocating_server_attack(self):
        assert_bit_identical([
            ScenarioSpec(name=f"e{seed}", seed=seed,
                         server_attack="equivocation", **_small())
            for seed in SEEDS])

    def test_silent_server_attack(self):
        assert_bit_identical([
            ScenarioSpec(name=f"q{seed}", seed=seed,
                         server_attack="silent_server", **_small())
            for seed in SEEDS])

    def test_label_flip_poisoning(self):
        assert_bit_identical([
            ScenarioSpec(name=f"p{seed}", seed=seed,
                         worker_attack=AttackSpec("label_flip",
                                                  {"num_classes": 4}),
                         **_small()) for seed in SEEDS])

    def test_alternate_rules_and_delay_model(self):
        assert_bit_identical([
            ScenarioSpec(name=f"k{seed}", seed=seed, gradient_rule="krum",
                         delay_model="lognormal",
                         worker_attack="sign_flip", **_small())
            for seed in SEEDS])

    def test_crash_recover_fault_schedule(self):
        schedule = FaultSchedule(events=[
            FaultEvent(step=2, kind="crash", nodes=["ps/1"]),
            FaultEvent(step=5, kind="recover", nodes=["ps/1"]),
            FaultEvent(step=1, kind="slowdown", nodes=["worker/2"],
                       factor=4.0),
            FaultEvent(step=6, kind="clear"),
        ])
        assert_bit_identical([
            ScenarioSpec(name=f"f{seed}", seed=seed,
                         faults=schedule.to_dict(), **_small())
            for seed in SEEDS])

    def test_per_replica_drop_and_duplicate_decisions(self):
        schedule = FaultSchedule(drop_rate=0.002, duplicate_rate=0.05)
        assert_bit_identical([
            ScenarioSpec(name=f"d{seed}", seed=seed,
                         faults=schedule.to_dict(), **_small())
            for seed in SEEDS])

    def test_partition_with_gated_attack(self):
        schedule = FaultSchedule(events=[
            FaultEvent(step=2, kind="partition", label="cut",
                       groups=[["ps/0"],
                               ["ps/1", "ps/2", "ps/3", "ps/4", "ps/5"]]),
            FaultEvent(step=5, kind="heal", label="cut"),
            FaultEvent(step=3, kind="activate_attack", nodes=["worker/8"]),
        ])
        assert_bit_identical([
            ScenarioSpec(name=f"g{seed}", seed=seed,
                         worker_attack="reversed_gradient",
                         num_attacking_workers=1,
                         faults=schedule.to_dict(), **_small())
            for seed in SEEDS])


class TestMixedFolds:
    """Folds that mix attackers, batch sizes, local walks and stalled
    workers: every lane of a fold's one gather must still read its own
    loader's stream."""

    @staticmethod
    def _seeds(replicas):
        return SEEDS[:replicas]

    @pytest.mark.parametrize("replicas", [1, 3])
    def test_label_flip_poisoner_across_two_batch_sizes(self, replicas):
        hetero = {"profiles": [{"batch_size": 8}, {}, {}]}
        assert_bit_identical([
            ScenarioSpec(name=f"mp{seed}", seed=seed, hetero=hetero,
                         worker_attack=AttackSpec("label_flip",
                                                  {"num_classes": 4}),
                         **_small()) for seed in self._seeds(replicas)])

    @pytest.mark.parametrize("replicas", [1, 3])
    def test_local_walks_between_folded_workers(self, replicas):
        hetero = {"partition": "dirichlet", "alpha": 0.5, "min_samples": 16,
                  "profiles": [{}, {"local_steps": 3},
                               {"local_steps": 2, "batch_size": 8}]}
        assert_bit_identical([
            ScenarioSpec(name=f"ml{seed}", seed=seed, hetero=hetero,
                         worker_attack=AttackSpec("label_flip",
                                                  {"num_classes": 4}),
                         **_small()) for seed in self._seeds(replicas)])

    @pytest.mark.parametrize("replicas", [1, 3])
    def test_crash_window_puts_index_streams_out_of_step(self, replicas):
        schedule = FaultSchedule(events=[
            FaultEvent(step=1, kind="crash", nodes=["worker/0", "worker/4"]),
            FaultEvent(step=4, kind="recover", nodes=["worker/0"]),
            FaultEvent(step=6, kind="recover", nodes=["worker/4"]),
        ])
        assert_bit_identical([
            ScenarioSpec(name=f"mc{seed}", seed=seed,
                         worker_attack="sign_flip",
                         faults=schedule.to_dict(), **_small())
            for seed in self._seeds(replicas)])

    def test_one_step_workers_draw_no_per_lane_batches(self, monkeypatch):
        # The fold gathers index rows; a silent return to the per-lane
        # next_batch loop would pass every equivalence test above.
        def refuse(loader):
            raise AssertionError("next_batch on the batched fold path")

        monkeypatch.setattr(DataLoader, "next_batch", refuse)
        trainer = BatchedGuanYuTrainer([
            ScenarioSpec(name=f"g{seed}", seed=seed,
                         worker_attack=AttackSpec("label_flip",
                                                  {"num_classes": 4}),
                         **_small()) for seed in range(16)])
        trainer.step(0)
        trainer.step(1)


class TestPoisonHook:
    """Only attacks that declare ``WorkerAttack.poisons`` reach the
    data-poisoning hook, on either engine."""

    @staticmethod
    def _hook_calls(monkeypatch, attack, engine):
        calls = []

        def recording(cls):
            original = cls.poison_batch

            def poison_batch(self, features, labels, context):
                calls.append((cls.__name__, context.step))
                return original(self, features, labels, context)
            monkeypatch.setattr(cls, "poison_batch", poison_batch)

        recording(AdversaryWorkerAttack)
        recording(LabelFlipPoisoning)
        specs = [ScenarioSpec(name=f"p{seed}", seed=seed,
                              worker_attack=attack, **_small(num_steps=2))
                 for seed in SEEDS]
        if engine == "batched":
            trainer = BatchedGuanYuTrainer(specs)
            trainer.step(0)
            expected = len(trainer.attacking_workers) * len(specs)
        else:
            sequential_history(specs[0])
            expected = 2 * specs[0].resolved_num_attacking_workers()
        return calls, expected

    @pytest.mark.parametrize("engine", ["batched", "sequential"])
    def test_label_flip_still_poisons(self, monkeypatch, engine):
        calls, expected = self._hook_calls(
            monkeypatch, AttackSpec("label_flip", {"num_classes": 4}), engine)
        assert expected > 0
        assert [name for name, _ in calls].count(
            "LabelFlipPoisoning") == expected

    @pytest.mark.parametrize("engine", ["batched", "sequential"])
    def test_sign_flip_makes_no_hook_call(self, monkeypatch, engine):
        calls, expected = self._hook_calls(monkeypatch, "sign_flip", engine)
        assert expected > 0 and calls == []


class TestFailureParity:
    def test_quorum_starvation_raises_in_both_runtimes(self):
        schedule = FaultSchedule(drop_rate=0.05)
        spec = ScenarioSpec(name="starved", seed=0,
                            faults=schedule.to_dict(), **_small(num_steps=14))
        with pytest.raises(RuntimeError):
            sequential_history(spec)
        with pytest.raises(RuntimeError):
            run_batched_scenarios([spec])


class TestEnvelope:
    def test_supports_batching_predicate(self):
        assert spec_supports_batching(ScenarioSpec(model="softmax"))
        assert spec_supports_batching(ScenarioSpec(model="mlp"))
        assert not spec_supports_batching(ScenarioSpec(model="small_cnn"))
        assert not spec_supports_batching(
            ScenarioSpec(trainer="vanilla", num_workers=4))

    def test_unsupported_model_raises(self):
        specs = [ScenarioSpec(name=f"c{seed}", seed=seed, model="small_cnn",
                              dataset="images", **_small())
                 for seed in (0, 1)]
        with pytest.raises(BatchingUnsupported):
            BatchedGuanYuTrainer(specs)

    def test_specs_differing_beyond_seed_rejected(self):
        specs = [ScenarioSpec(name="a", seed=0, **_small()),
                 ScenarioSpec(name="b", seed=1, batch_size=8, **_small())]
        with pytest.raises(ValueError, match="only in seed"):
            BatchedGuanYuTrainer(specs)

    def test_empty_spec_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            BatchedGuanYuTrainer([])

    def test_batch_group_hash_ignores_name_and_seed_only(self):
        base = ScenarioSpec(name="a", seed=0, **_small())
        assert base.batch_group_hash() == \
            base.replace(name="z", seed=99).batch_group_hash()
        assert base.batch_group_hash() != \
            base.replace(gradient_rule="median").batch_group_hash()
        # spec_hash (the store address) still distinguishes seeds
        assert base.spec_hash() != base.replace(seed=99).spec_hash()


class TestEngineRouting:
    def _seed_specs(self, count=3, **overrides):
        return [ScenarioSpec(name=f"seed{seed}", seed=seed,
                             **_small(**overrides))
                for seed in range(count)]

    @pytest.mark.parametrize("delay_model", available_delay_models())
    def test_every_nameable_delay_model_runs_batched(self, delay_model):
        spec = ScenarioSpec(name="d", delay_model=delay_model, **_small())
        assert resolve_runtime(spec) == "batched"
        result = run(spec)
        assert result.runtime == "batched"
        assert result.history.to_dict() == \
            sequential_history(spec).to_dict()

    def test_campaign_routes_seed_axis_to_batched_runtime(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        specs = self._seed_specs()
        result = run_campaign(specs, store=store, batch_seeds=True)
        assert result.counts() == {"ran": 3, "cached": 0, "failed": 0}
        assert all(outcome.batched for outcome in result.outcomes)
        # stored under the unchanged per-scenario content addresses
        for spec in specs:
            stored = store.get(spec.spec_hash())
            assert stored.history.to_dict() == \
                sequential_history(spec).to_dict()

    def test_batched_store_entries_resume_a_sequential_campaign(self,
                                                                tmp_path):
        store = ResultStore(tmp_path / "store")
        specs = self._seed_specs()
        run_campaign(specs, store=store, batch_seeds=True)
        rerun = run_campaign(specs, store=store, batch_seeds=False)
        assert rerun.counts() == {"ran": 0, "cached": 3, "failed": 0}

    def test_mixed_campaign_batches_only_seed_groups(self):
        specs = self._seed_specs(count=2)
        specs.append(ScenarioSpec(name="loner", seed=5, gradient_rule="mean",
                                  **_small()))
        result = run_campaign(specs, batch_seeds=True)
        by_name = {outcome.spec.name: outcome for outcome in result.outcomes}
        assert by_name["seed0"].batched and by_name["seed1"].batched
        assert not by_name["loner"].batched
        assert result.counts()["failed"] == 0

    def test_unbatchable_scenarios_fall_back_to_sequential(self):
        specs = [ScenarioSpec(name=f"v{seed}", seed=seed, trainer="vanilla",
                              num_workers=4, gradient_rule="mean",
                              declared_byzantine_workers=0, **_small())
                 for seed in (0, 1)]
        result = run_campaign(specs, batch_seeds=True)
        assert result.counts()["failed"] == 0
        assert not any(outcome.batched for outcome in result.outcomes)

    def test_batched_group_failure_falls_back_with_isolation(self):
        """A group the batched runtime rejects still yields per-scenario
        outcomes (here: label_flip poisoning mislabelled for the workload
        fails identically under both runtimes)."""
        specs = [ScenarioSpec(name=f"b{seed}", seed=seed,
                              worker_attack=AttackSpec("label_flip",
                                                       {"num_classes": 10}),
                              **_small()) for seed in (0, 1)]
        result = run_campaign(specs, batch_seeds=True)
        assert result.counts()["failed"] == 2
        assert all(not outcome.batched for outcome in result.outcomes)

    def test_parallel_pool_execution_with_batching(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        specs = self._seed_specs(count=2)
        specs.append(ScenarioSpec(name="other-rule", seed=0,
                                  gradient_rule="median", **_small()))
        result = run_campaign(specs, store=store, processes=2,
                              batch_seeds=True)
        assert result.counts() == {"ran": 3, "cached": 0, "failed": 0}
        assert store.contains(specs[0].spec_hash())


class TestBatchedInternals:
    def test_histories_carry_sequential_config_metadata(self):
        specs = [ScenarioSpec(name=f"s{seed}", seed=seed, **_small())
                 for seed in (0, 1)]
        histories = run_batched_scenarios(specs)
        sequential = sequential_history(specs[0])
        assert histories[0].config == sequential.config
        assert histories[0].label == "s0" and histories[1].label == "s1"

    def test_global_parameters_shape(self):
        specs = [ScenarioSpec(name=f"s{seed}", seed=seed, **_small())
                 for seed in (0, 1)]
        trainer = BatchedGuanYuTrainer(specs)
        trainer.run(2, eval_every=1)
        observer = trainer.global_parameters()
        assert observer.shape == (2, trainer.num_parameters)
        assert np.all(np.isfinite(observer))
