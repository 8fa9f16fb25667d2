"""Tests for the fault-schedule engine (repro.faults) across both runtimes."""

import hashlib
from typing import List

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.adversary import RandomGradientAttack, SignFlipAttack
from repro.aggregation import available_rules
from repro.batch import run_batched_scenarios
from repro.campaign import ScenarioSpec
from repro.campaign.spec import available_delay_models
from repro.core import ClusterConfig, GuanYuTrainer
from repro.faults import (
    FaultController,
    FaultEvent,
    FaultSchedule,
    GatedWorkerAttack,
)
from repro.faults.controller import SendDecision
from repro.faults.schedule import EVENT_KINDS, LINK_OVERRIDE_KINDS
from repro.metrics import evaluate_accuracy
from repro.network import ConstantDelay, MessageKind, NetworkSimulator
from repro.nn.schedules import ConstantSchedule
from repro.runtime.threads import ThreadedClusterRuntime
from repro.testing import sequential_history


# --------------------------------------------------------------------------- #
# Schedule
# --------------------------------------------------------------------------- #
class TestFaultSchedule:
    def test_json_round_trip(self):
        schedule = FaultSchedule(events=[
            FaultEvent(step=2, kind="crash", nodes=["ps/0"]),
            FaultEvent(step=5, kind="recover", nodes=["ps/0"]),
            FaultEvent(step=1, kind="partition",
                       groups=[["ps/1"], ["worker/0"]], label="p"),
            FaultEvent(step=4, kind="heal", label="p"),
            FaultEvent(step=0, kind="slowdown", nodes=["worker/1"], factor=3.0),
        ], drop_rate=0.1, duplicate_rate=0.05)
        restored = FaultSchedule.from_json(schedule.to_json())
        assert restored.to_dict() == schedule.to_dict()
        assert len(restored.events) == 5

    def test_compact_dict_omits_defaults(self):
        event = FaultEvent(step=3, kind="crash", nodes=["ps/1"])
        assert event.to_dict() == {"step": 3, "kind": "crash", "nodes": ["ps/1"]}

    def test_empty_schedule_is_falsy(self):
        assert not FaultSchedule()
        assert FaultSchedule(drop_rate=0.2)
        assert FaultSchedule(events=[FaultEvent(step=0, kind="crash",
                                                nodes=["a"])])

    def test_validation_rejects_bad_events(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSchedule(events=[FaultEvent(step=0, kind="meteor")]).validate()
        with pytest.raises(ValueError, match="at least one node"):
            FaultSchedule(events=[FaultEvent(step=0, kind="crash")]).validate()
        with pytest.raises(ValueError, match="at least two groups"):
            FaultSchedule(events=[FaultEvent(step=0, kind="partition",
                                             groups=[["a"]])]).validate()
        with pytest.raises(ValueError, match="disjoint"):
            FaultSchedule(events=[FaultEvent(
                step=0, kind="partition",
                groups=[["a", "b"], ["b"]])]).validate()
        with pytest.raises(ValueError, match="crash twice"):
            FaultSchedule(events=[
                FaultEvent(step=0, kind="crash", nodes=["a"]),
                FaultEvent(step=2, kind="crash", nodes=["a"]),
            ]).validate()
        with pytest.raises(ValueError, match="never crashed"):
            FaultSchedule(events=[FaultEvent(step=1, kind="recover",
                                             nodes=["a"])]).validate()
        with pytest.raises(ValueError, match="empty"):
            FaultSchedule(events=[
                FaultEvent(step=5, kind="crash", nodes=["a"]),
                FaultEvent(step=5, kind="recover", nodes=["a"]),
            ]).validate()
        with pytest.raises(ValueError, match="drop_rate"):
            FaultSchedule(drop_rate=1.0).validate()

    def test_validation_checks_known_nodes(self):
        schedule = FaultSchedule.crash_window(["ps/7"], 1, 3)
        schedule.validate(known_nodes=["ps/7", "worker/0"])
        with pytest.raises(ValueError, match="unknown nodes"):
            schedule.validate(known_nodes=["ps/0"])

    def test_crash_window_helper_orders_steps(self):
        with pytest.raises(ValueError):
            FaultSchedule.crash_window(["a"], 5, 5)
        with pytest.raises(ValueError):
            FaultSchedule.partition_window([["a"], ["b"]], 4, 2)


# --------------------------------------------------------------------------- #
# Controller
# --------------------------------------------------------------------------- #
class TestFaultController:
    def _controller(self):
        return FaultController(FaultSchedule(events=[
            FaultEvent(step=3, kind="crash", nodes=["ps/0"]),
            FaultEvent(step=7, kind="recover", nodes=["ps/0"]),
            FaultEvent(step=2, kind="partition",
                       groups=[["ps/1", "worker/0"], ["ps/2"]], label="p"),
            FaultEvent(step=6, kind="heal", label="p"),
            FaultEvent(step=1, kind="slowdown", nodes=["worker/1"],
                       factor=4.0, label="slow"),
            FaultEvent(step=5, kind="clear", label="slow"),
            FaultEvent(step=0, kind="delay_spike",
                       links=[["ps/1", "ps/2"]], extra_delay=0.25),
            FaultEvent(step=4, kind="activate_attack", nodes=["worker/2"]),
            FaultEvent(step=8, kind="deactivate_attack", nodes=["worker/2"]),
        ]), seed=0)

    def test_crash_interval_is_half_open(self):
        controller = self._controller()
        assert controller.node_alive("ps/0", 2)
        assert not controller.node_alive("ps/0", 3)
        assert not controller.node_alive("ps/0", 6)
        assert controller.node_alive("ps/0", 7)

    def test_partition_blocks_cross_group_only(self):
        controller = self._controller()
        assert controller.link_blocked("ps/1", "ps/2", 2)
        assert controller.link_blocked("ps/2", "worker/0", 5)
        assert not controller.link_blocked("ps/1", "worker/0", 3)  # same group
        assert not controller.link_blocked("ps/1", "ps/5", 3)      # ungrouped
        assert not controller.link_blocked("ps/1", "ps/2", 6)      # healed

    def test_link_state_effects_combine(self):
        controller = self._controller()
        state = controller.link_state("worker/1", "ps/2", 2)
        assert state.blocked_by is None
        assert state.delay_factor == pytest.approx(4.0)
        state = controller.link_state("worker/1", "ps/2", 5)
        assert state.delay_factor == pytest.approx(1.0)  # cleared
        state = controller.link_state("ps/2", "ps/1", 0)
        assert state.extra_delay == pytest.approx(0.25)  # link pair matches both ways

    def test_attack_gating_window(self):
        controller = self._controller()
        assert not controller.attack_active("worker/2", 3)
        assert controller.attack_active("worker/2", 4)
        assert controller.attack_active("worker/2", 7)
        assert not controller.attack_active("worker/2", 8)
        # nodes without gating events are always active
        assert controller.attack_active("worker/9", 0)

    def test_on_send_blocks_crashed_and_partitioned(self):
        controller = self._controller()
        decision = controller.on_send("ps/0", "worker/5", "m", 4)
        assert not decision.deliver and decision.blocked_by == "crash"
        decision = controller.on_send("ps/1", "ps/2", "m", 4)
        assert not decision.deliver and decision.blocked_by == "partition"
        decision = controller.on_send("ps/1", "ps/2", "m", 6)
        assert decision.deliver

    def test_hash_sampling_is_deterministic_and_calibrated(self):
        controller = FaultController(FaultSchedule(drop_rate=0.3), seed=5)
        twin = FaultController(FaultSchedule(drop_rate=0.3), seed=5)
        decisions = [controller.on_send(f"w{i}", "s", "g", 0).deliver
                     for i in range(600)]
        assert decisions == [twin.on_send(f"w{i}", "s", "g", 0).deliver
                             for i in range(600)]
        dropped = decisions.count(False)
        assert 120 < dropped < 240  # ~30 % of 600

    def test_reachable_senders_excludes_dead_and_partitioned(self):
        controller = self._controller()
        senders = ["ps/0", "ps/1", "ps/2", "ps/3"]
        assert controller.reachable_senders("worker/0", senders, 4) == \
            ["ps/1", "ps/3"]  # ps/0 crashed, ps/2 across the partition
        assert controller.reachable_senders("worker/0", senders, 7) == senders

    def test_participation_fixpoint_stalls_transitively(self):
        """An asymmetric partition ([w0] vs [s0]) starves everyone when the
        quorums are maximal: w0 and s0 stall directly, and every other node
        stalls transitively because it would wait on them."""
        controller = FaultController(FaultSchedule(events=[FaultEvent(
            step=2, kind="partition", groups=[["worker/0"], ["ps/0"]])]))
        workers = [f"worker/{i}" for i in range(4)]
        servers = [f"ps/{i}" for i in range(3)]
        # before the partition: everyone participates
        kept_w, kept_s = controller.participating_nodes(workers, servers,
                                                        3, 4, 1)
        assert kept_w == workers and kept_s == servers
        # after: nobody can complete the step with q = n and q̄ = n̄
        kept_w, kept_s = controller.participating_nodes(workers, servers,
                                                        3, 4, 2)
        assert kept_w == [] and kept_s == []
        # with slack in the model quorum only the starved server stalls:
        # ps/0 cannot hear gradients from all 4 workers, everyone else can
        # still fill both quorums from the remaining nodes
        kept_w, kept_s = controller.participating_nodes(workers, servers,
                                                        2, 4, 2)
        assert kept_w == workers and kept_s == servers[1:]

    def test_caches_hold_one_entry_per_epoch(self):
        """A long run under faults keeps one participation answer and one
        link verdict per epoch, and every cached answer is a fresh
        controller's."""
        schedule = FaultSchedule(events=[
            FaultEvent(step=40, kind="crash", nodes=["ps/2"]),
            FaultEvent(step=90, kind="recover", nodes=["ps/2"]),
            FaultEvent(step=200, kind="slowdown", nodes=["worker/1"],
                       factor=2.0)])
        workers = [f"worker/{i}" for i in range(4)]
        servers = [f"ps/{i}" for i in range(3)]
        controller = FaultController(schedule, seed=3)
        for step in range(500):
            answer = controller.participating_nodes(workers, servers, 2, 3,
                                                    step)
            fresh = FaultController(schedule, seed=3)
            assert answer == fresh.participating_nodes(workers, servers, 2,
                                                       3, step)
            assert controller.on_send("ps/2", "worker/1", "m", step) == \
                fresh.on_send("ps/2", "worker/1", "m", step)
        assert len(controller._participation_cache) <= 4
        assert len(controller._links) <= 4

    def test_link_table_is_link_state_per_link(self):
        controller = self._controller()
        senders, recipients = ["ps/0", "ps/1", "worker/1"], ["ps/2", "worker/0"]
        for step in range(10):
            table = controller.link_table(senders, recipients, step)
            for i, sender in enumerate(senders):
                for j, recipient in enumerate(recipients):
                    state = controller.link_state(sender, recipient, step)
                    assert table.deliver[i, j] == (state.blocked_by is None)
                    assert (table.delay_factor[i, j], table.extra_delay[i, j],
                            table.drop_rate[i, j]) == state[1:]

    def test_gate_attack_wraps_only_gated_nodes(self):
        controller = self._controller()
        attack = SignFlipAttack()
        gated = controller.gate_attack("worker/2", attack)
        assert isinstance(gated, GatedWorkerAttack)
        assert gated.name == attack.name
        assert controller.gate_attack("worker/0", attack) is attack
        assert controller.gate_attack("worker/2", None) is None

    def test_gated_attack_honest_outside_window(self):
        controller = self._controller()
        gated = controller.gate_attack("worker/2", SignFlipAttack())
        from repro.adversary.base import AttackContext
        honest = np.array([1.0, -2.0])
        before = gated.corrupt_gradient(AttackContext(step=1, honest_value=honest))
        inside = gated.corrupt_gradient(AttackContext(step=5, honest_value=honest))
        assert np.allclose(before, honest)
        assert np.allclose(inside, -honest)

    def test_gated_server_attack_honest_outside_window(self):
        # Shrunk from the generated lift test's first finding: the server
        # gate had no ``_active`` and raised AttributeError on first use.
        from repro.adversary import AttackContext, RandomModelAttack
        controller = FaultController(FaultSchedule(events=[
            FaultEvent(step=4, kind="activate_attack", nodes=["ps/5"])]))
        gated = controller.gate_attack("ps/5", RandomModelAttack())
        honest = np.array([1.0, -2.0])
        before = gated.corrupt_model(AttackContext(step=3, honest_value=honest))
        inside = gated.corrupt_model(AttackContext(step=4, honest_value=honest))
        assert np.array_equal(before, honest)
        assert not np.allclose(inside, honest)


class TestSharedLinkTables:
    """Compiled link tables depend on the schedule alone: controllers of
    equal schedules share one, through a bounded process-level cache."""

    SENDERS = ("worker/0", "worker/1", "ps/0")
    RECIPIENTS = ("ps/0", "ps/1")

    @staticmethod
    def _schedule(step: int = 2, factor: float = 3.0) -> FaultSchedule:
        return FaultSchedule.from_dict({"events": [
            {"step": step, "kind": "crash", "nodes": ["ps/1"]},
            {"step": 1, "kind": "slowdown", "nodes": ["worker/0"],
             "factor": factor}], "drop_rate": 0.1})

    def _table(self, controller: FaultController, step: int = 3):
        return controller.link_table(self.SENDERS, self.RECIPIENTS, step)

    def test_equal_schedules_share_one_table(self):
        first = FaultController(self._schedule(), seed=1)
        second = FaultController(self._schedule(), seed=2)
        assert self._table(first) is self._table(second)
        # one epoch, one table: steps 2 and 5 both follow the last event
        assert self._table(second, step=5) is self._table(first)
        other = FaultController(self._schedule(factor=4.0), seed=1)
        assert self._table(other) is not self._table(first)
        assert not np.array_equal(self._table(other).delay_factor,
                                  self._table(first).delay_factor)

    def test_stats_and_drops_stay_per_controller(self):
        first = FaultController(self._schedule(), seed=1)
        second = FaultController(self._schedule(), seed=2)
        self._table(first), self._table(second)
        first.on_send("ps/1", "ps/0", "model", 3)
        assert first.stats["blocked_crash"] == 1
        assert second.stats["blocked_crash"] == 0
        drops = [[controller.dropped("worker/0", "ps/0", "gradient", step, 0.5)
                  for step in range(32)] for controller in (first, second)]
        assert drops[0] != drops[1]

    def test_cache_stays_within_its_bound(self, monkeypatch):
        from repro.faults import controller as module
        monkeypatch.setattr(module, "SHARED_TABLES", 4)
        first = FaultController(self._schedule(step=100), seed=0)
        oldest = self._table(first)
        for step in range(101, 110):
            self._table(FaultController(self._schedule(step=step)))
            assert len(module._shared_tables) <= 4
        # evicted from the shared cache: a new controller compiles afresh,
        # while the first keeps its own
        assert self._table(FaultController(self._schedule(step=100))) \
            is not oldest
        assert self._table(first) is oldest

    def test_threads_share_the_cache_safely(self, monkeypatch):
        """Eight threads (more than the cores) look up, compile and evict
        four keys through a two-entry cache at a 1 µs switch interval: no
        lookup fails, every key gets its own table and the bound holds."""
        import sys
        import threading

        from repro.faults import controller as module
        monkeypatch.setattr(module, "SHARED_TABLES", 2)
        errors = []

        def hammer(offset: int) -> None:
            try:
                for round_ in range(5000):
                    key = ("stress", (offset + round_) % 4)
                    assert module._shared_table(key, lambda: key) == key
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(offset,))
                       for offset in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(module._shared_tables) <= 2


# --------------------------------------------------------------------------- #
# Simulator integration
# --------------------------------------------------------------------------- #
class TestSimulatorFaults:
    def _sim(self, schedule, seed=0):
        return NetworkSimulator(
            delay_model=ConstantDelay(delay=0.01,
                                      bandwidth_bytes_per_second=1e12),
            seed=seed, fault_controller=FaultController(schedule, seed=seed))

    def test_partition_blocks_and_heals(self):
        schedule = FaultSchedule.partition_window([["a"], ["b"]], 1, 3)
        sim = self._sim(schedule)
        assert sim.send("a", "b", MessageKind.MODEL_TO_WORKER, 1,
                        np.ones(2), 0.0) is None
        assert sim.stats.messages_blocked == 1
        assert sim.send("a", "b", MessageKind.MODEL_TO_WORKER, 3,
                        np.ones(2), 0.0) is not None

    def test_crashed_sender_and_recipient_suppressed(self):
        schedule = FaultSchedule.crash_window(["a"], 0, 2)
        sim = self._sim(schedule)
        assert sim.send("a", "b", MessageKind.MODEL_TO_WORKER, 0,
                        np.ones(1), 0.0) is None
        assert sim.send("b", "a", MessageKind.MODEL_TO_WORKER, 1,
                        np.ones(1), 0.0) is None
        assert sim.send("b", "a", MessageKind.MODEL_TO_WORKER, 2,
                        np.ones(1), 0.0) is not None

    def test_delay_spike_extends_delivery(self):
        schedule = FaultSchedule(events=[
            FaultEvent(step=0, kind="delay_spike", nodes=["a"],
                       extra_delay=0.5)])
        sim = self._sim(schedule)
        message = sim.send("a", "b", MessageKind.MODEL_TO_WORKER, 0,
                           np.ones(1), send_time=1.0)
        assert message.deliver_time == pytest.approx(1.51)

    def test_slowdown_multiplies_delay(self):
        schedule = FaultSchedule(events=[
            FaultEvent(step=0, kind="slowdown", nodes=["a"], factor=10.0)])
        sim = self._sim(schedule)
        message = sim.send("a", "b", MessageKind.MODEL_TO_WORKER, 0,
                           np.ones(1), send_time=0.0)
        assert message.deliver_time == pytest.approx(0.1)

    def test_base_drop_rate_loses_messages(self):
        sim = self._sim(FaultSchedule(drop_rate=0.5))
        for index in range(200):
            sim.send(f"s{index}", "w", MessageKind.MODEL_TO_WORKER, 0,
                     np.zeros(1), 0.0)
        assert 50 < sim.stats.messages_dropped < 150
        assert sim.pending_count("w") == 200 - sim.stats.messages_dropped

    def test_mean_delay_counts_actual_deliveries(self):
        """Duplicates add their delay AND their delivery to the mean."""
        sim = NetworkSimulator(delay_model=ConstantDelay(
            delay=0.01, bandwidth_bytes_per_second=1e12), seed=0,
            fault_controller=FaultController(
                FaultSchedule(duplicate_rate=0.9)))
        for index in range(50):
            sim.send(f"s{index}", "w", MessageKind.MODEL_TO_WORKER, 0,
                     np.zeros(1), 0.0)
        stats = sim.stats
        assert stats.messages_duplicated > 10
        assert stats.messages_delivered == \
            stats.messages_sent + stats.messages_duplicated
        # Every original costs 0.01 and every duplicate 0.02; the mean over
        # actual deliveries is pulled between the two, never above 0.02.
        expected = (0.01 * stats.messages_sent
                    + 0.02 * stats.messages_duplicated) / stats.messages_delivered
        assert stats.mean_delay == pytest.approx(expected)
        assert 0.01 <= stats.mean_delay <= 0.02


# --------------------------------------------------------------------------- #
# Simulated trainer integration
# --------------------------------------------------------------------------- #
class TestGuanYuTrainerFaults:
    def _trainer(self, blobs_split, softmax_model_fn, schedule, **kwargs):
        train, test = blobs_split
        config = kwargs.pop("config", ClusterConfig(
            num_servers=6, num_workers=9,
            num_byzantine_servers=1, num_byzantine_workers=2))
        return GuanYuTrainer(
            config=config, model_fn=softmax_model_fn, train_dataset=train,
            test_dataset=test, schedule=ConstantSchedule(0.05),
            batch_size=16, seed=0, fault_schedule=schedule, **kwargs)

    def test_server_crash_and_recovery_converges(self, blobs_split,
                                                 softmax_model_fn):
        train, test = blobs_split
        schedule = FaultSchedule.crash_window(["ps/5"], 5, 12)
        trainer = self._trainer(blobs_split, softmax_model_fn, schedule)
        history = trainer.run(num_steps=25, eval_every=25)
        assert len(history) == 25
        model = softmax_model_fn()
        model.set_flat_parameters(trainer.global_parameters())
        assert evaluate_accuracy(model, test) > 0.8

    def test_crash_window_grows_then_contracts_spread(self, blobs_split,
                                                      softmax_model_fn):
        schedule = FaultSchedule.crash_window(["ps/5"], 5, 12)
        trainer = self._trainer(blobs_split, softmax_model_fn, schedule)
        history = trainer.run(num_steps=20, eval_every=20)
        spreads = [record.max_server_spread for record in history.records]
        # The crashed replica goes stale: spread grows during the window ...
        assert max(spreads[5:12]) > 0.1
        # ... and the phase-3 median contracts it back after recovery.
        assert spreads[-1] < 0.05

    def test_partitioned_worker_stalls_but_training_survives(
            self, blobs_split, softmax_model_fn):
        schedule = FaultSchedule.partition_window(
            groups=[["worker/0"],
                    [f"ps/{i}" for i in range(6)]],
            partition_step=4, heal_step=10)
        trainer = self._trainer(blobs_split, softmax_model_fn, schedule)
        history = trainer.run(num_steps=15, eval_every=15)
        assert len(history) == 15
        assert trainer.network.stats.messages_blocked > 0

    def test_crashed_majority_freezes_instead_of_diverging(
            self, blobs_split, softmax_model_fn):
        """Crashing more servers than n − q stalls learning, loudly visible
        as train_loss=None steps, then training resumes after recovery."""
        config = ClusterConfig(num_servers=6, num_workers=9,
                               num_byzantine_servers=0,
                               num_byzantine_workers=0, model_quorum=5)
        schedule = FaultSchedule.crash_window(["ps/4", "ps/5"], 3, 6)
        trainer = self._trainer(blobs_split, softmax_model_fn, schedule,
                                config=config)
        history = trainer.run(num_steps=10, eval_every=10)
        stalled = [record.step for record in history.records
                   if record.train_loss is None]
        assert stalled == [3, 4, 5]

    def test_gated_attack_only_bites_inside_window(self, blobs_split,
                                                   softmax_model_fn):
        schedule = FaultSchedule(events=[
            FaultEvent(step=5, kind="activate_attack",
                       nodes=["worker/7", "worker/8"]),
            FaultEvent(step=10, kind="deactivate_attack",
                       nodes=["worker/7", "worker/8"]),
        ])
        trainer = self._trainer(blobs_split, softmax_model_fn, schedule,
                                worker_attack=RandomGradientAttack(scale=50.0),
                                num_attacking_workers=2)
        assert isinstance(trainer.workers[-1].attack, GatedWorkerAttack)
        history = trainer.run(num_steps=12, eval_every=12)
        assert len(history) == 12

    def test_fault_config_recorded_in_history(self, blobs_split,
                                              softmax_model_fn):
        schedule = FaultSchedule.crash_window(["ps/5"], 2, 4)
        trainer = self._trainer(blobs_split, softmax_model_fn, schedule)
        assert trainer.history.config["faults"] == schedule.to_dict()

    def test_unknown_node_rejected_at_construction(self, blobs_split,
                                                   softmax_model_fn):
        schedule = FaultSchedule.crash_window(["ps/99"], 2, 4)
        with pytest.raises(ValueError, match="unknown nodes"):
            self._trainer(blobs_split, softmax_model_fn, schedule)


# --------------------------------------------------------------------------- #
# Threaded runtime integration
# --------------------------------------------------------------------------- #
class TestThreadedRuntimeFaults:
    def _runtime(self, blobs_split, softmax_model_fn, schedule, **kwargs):
        train, _ = blobs_split
        config = kwargs.pop("config", ClusterConfig(
            num_servers=6, num_workers=9,
            num_byzantine_servers=1, num_byzantine_workers=2))
        return ThreadedClusterRuntime(
            config=config, model_fn=softmax_model_fn, train_dataset=train,
            batch_size=16, schedule=ConstantSchedule(0.05), seed=0,
            quorum_timeout=20.0, fault_schedule=schedule, **kwargs)

    def test_crash_and_recovery_converges(self, blobs_split, softmax_model_fn):
        train, test = blobs_split
        schedule = FaultSchedule.crash_window(["ps/5"], 4, 10)
        runtime = self._runtime(blobs_split, softmax_model_fn, schedule)
        history = runtime.run(num_steps=20)
        assert len(history) == 20
        model = softmax_model_fn()
        model.set_flat_parameters(runtime.global_parameters())
        assert evaluate_accuracy(model, test) > 0.8
        assert runtime.messages_suppressed > 0

    def test_partition_heal_converges(self, blobs_split, softmax_model_fn):
        train, test = blobs_split
        config = ClusterConfig(num_servers=6, num_workers=9,
                               num_byzantine_servers=1,
                               num_byzantine_workers=2)
        rest = [f"ps/{i}" for i in range(1, 6)] + \
            [f"worker/{i}" for i in range(9)]
        schedule = FaultSchedule.partition_window(
            groups=[["ps/0"], rest], partition_step=4, heal_step=9)
        runtime = self._runtime(blobs_split, softmax_model_fn, schedule,
                                config=config)
        history = runtime.run(num_steps=18)
        assert len(history) == 18
        model = softmax_model_fn()
        model.set_flat_parameters(runtime.global_parameters())
        assert evaluate_accuracy(model, test) > 0.8

    def test_asymmetric_partition_freezes_both_runtimes_gracefully(
            self, blobs_split, softmax_model_fn):
        """A partition that transitively starves everyone (maximal quorums,
        [worker/0] cut from [ps/0]) must freeze the window in BOTH runtimes
        — never a QuorumTimeout, never a RuntimeError."""
        train, _ = blobs_split
        config = ClusterConfig(num_servers=3, num_workers=4,
                               model_quorum=3, gradient_quorum=4)
        schedule = FaultSchedule.partition_window(
            groups=[["worker/0"], ["ps/0"]], partition_step=2, heal_step=5)
        runtime = ThreadedClusterRuntime(
            config=config, model_fn=softmax_model_fn, train_dataset=train,
            batch_size=16, schedule=ConstantSchedule(0.05), seed=0,
            quorum_timeout=10.0, fault_schedule=schedule)
        history = runtime.run(num_steps=8)
        frozen = [r.step for r in history.records if r.train_loss is None]
        assert frozen == [2, 3, 4]
        trainer = GuanYuTrainer(
            config=config, model_fn=softmax_model_fn, train_dataset=train,
            schedule=ConstantSchedule(0.05), batch_size=16, seed=0,
            fault_schedule=schedule)
        sim_history = trainer.run(num_steps=8, eval_every=8)
        assert [r.step for r in sim_history.records
                if r.train_loss is None] == frozen

    def test_same_schedule_same_suppression_as_simulator(self, blobs_split,
                                                         softmax_model_fn):
        """Both runtimes run the same protocol over the same schedule, so
        the deterministic fault decisions suppress the same messages."""
        train, _ = blobs_split
        config = ClusterConfig(num_servers=6, num_workers=9,
                               num_byzantine_servers=1,
                               num_byzantine_workers=2)
        schedule = FaultSchedule.crash_window(["ps/5"], 3, 8)
        runtime = self._runtime(blobs_split, softmax_model_fn, schedule,
                                config=config)
        runtime.run(num_steps=12)
        trainer = GuanYuTrainer(
            config=config, model_fn=softmax_model_fn, train_dataset=train,
            schedule=ConstantSchedule(0.05), batch_size=16, seed=0,
            fault_schedule=FaultSchedule.crash_window(["ps/5"], 3, 8))
        trainer.run(num_steps=12, eval_every=12)
        assert runtime.messages_suppressed == \
            trainer.network.stats.messages_blocked


# --------------------------------------------------------------------------- #
# Generated schedules: the compiled controller and the batched engine
# --------------------------------------------------------------------------- #
ORACLE_WORKERS = [f"worker/{i}" for i in range(6)]
ORACLE_SERVERS = [f"ps/{i}" for i in range(6)]
ORACLE_NODES = ORACLE_WORKERS + ORACLE_SERVERS
#: event steps span the run and one step past it
ORACLE_HORIZON = 6
ORACLE_SHAPE = dict(num_workers=6, num_servers=6,
                    declared_byzantine_workers=1,
                    declared_byzantine_servers=1, dataset_size=200,
                    eval_every=2, max_eval_samples=32, batch_size=8)
ORACLE_THREATS = (
    {},
    {"worker_attack": "sign_flip"},
    {"worker_attack": "random_gradient"},
    {"worker_attack": "little_is_enough", "server_attack": "corrupted_model"},
    {"adversary": "collusion"},
)
ORACLE_KINDS = [kind.value for kind in (MessageKind.MODEL_TO_WORKER,
                                        MessageKind.GRADIENT_TO_SERVER,
                                        MessageKind.MODEL_TO_SERVER)]


class _Window:
    """A half-open step interval ``[start, end)`` carrying one event."""

    def __init__(self, event: FaultEvent) -> None:
        self.start, self.end, self.event = event.step, float("inf"), event

    def active(self, step: int) -> bool:
        return self.start <= step < self.end


def _reference_windows(schedule: FaultSchedule):
    """The schedule as interval tables: crash windows per node, partition
    windows and link-override windows in schedule order."""
    crashes, partitions, overrides = {}, [], []
    open_partitions, open_overrides, anonymous = {}, {}, []
    for event in schedule.sorted_events():
        if event.kind == "crash":
            for node in event.nodes:
                crashes.setdefault(node, []).append(_Window(event))
        elif event.kind == "recover":
            for node in event.nodes:
                windows = crashes.get(node, [])
                if windows and windows[-1].end == float("inf"):
                    windows[-1].end = event.step
        elif event.kind == "partition":
            window = _Window(event)
            partitions.append(window)
            open_partitions[event.label] = window
        elif event.kind == "heal":
            closing = ([open_partitions.pop(event.label, None)] if event.label
                       else list(open_partitions.values()))
            if not event.label:
                open_partitions.clear()
            for window in closing:
                if window is not None:
                    window.end = event.step
        elif event.kind in LINK_OVERRIDE_KINDS:
            window = _Window(event)
            overrides.append(window)
            if event.label:
                open_overrides[event.label] = window
            else:
                anonymous.append(window)
        elif event.kind == "clear":
            if event.label:
                closing = [open_overrides.pop(event.label, None)]
            else:
                closing = list(open_overrides.values()) + [
                    window for window in anonymous
                    if window.end == float("inf")]
                open_overrides.clear()
                anonymous.clear()
            for window in closing:
                if window is not None:
                    window.end = event.step
    return crashes, partitions, overrides


def reference_on_send(schedule: FaultSchedule, windows, seed: int,
                      sender: str, recipient: str, kind: str,
                      step: int) -> SendDecision:
    """One message judged the long way, as the controller did before it
    compiled per epoch: scan every interval table (``windows``, from
    :func:`_reference_windows`) at ``step``, then hash the drop and
    duplicate draws from ``(seed, sender, recipient, kind, step)``."""
    crashes, partitions, overrides = windows
    if any(window.active(step) for node in (sender, recipient)
           for window in crashes.get(node, ())):
        return SendDecision(deliver=False, blocked_by="crash")
    for window in partitions:
        if not window.active(step):
            continue
        sides = [next((i for i, group in enumerate(window.event.groups)
                       if node in group), None)
                 for node in (sender, recipient)]
        if None not in sides and sides[0] != sides[1]:
            return SendDecision(deliver=False, blocked_by="partition")
    factor, extra, keep = 1.0, 0.0, 1.0 - schedule.drop_rate
    for window in overrides:
        event = window.event
        if not window.active(step) or not (
                (not event.nodes and not event.links)
                or sender in event.nodes or recipient in event.nodes
                or any(sorted(link) == sorted((sender, recipient))
                       for link in event.links)):
            continue
        if event.kind == "slowdown":
            factor *= event.factor
        elif event.kind == "delay_spike":
            extra += event.extra_delay
        else:
            keep *= 1.0 - event.rate

    def uniform(tag):
        material = "|".join(map(str, (seed, tag, sender, recipient, kind,
                                      step)))
        digest = hashlib.sha256(material.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2.0 ** 64

    drop_rate = 1.0 - keep
    if drop_rate > 0 and uniform("drop") < drop_rate:
        return SendDecision(deliver=False, blocked_by="drop")
    duplicate = schedule.duplicate_rate > 0 \
        and uniform("dup") < schedule.duplicate_rate
    return SendDecision(deliver=True, delay_factor=factor, extra_delay=extra,
                        duplicate=duplicate)


_steps = st.integers(0, ORACLE_HORIZON)
_labels = st.sampled_from(["", "a"])
_node_sets = st.lists(st.sampled_from(ORACLE_NODES), min_size=1, max_size=3,
                      unique=True)


@st.composite
def _fault_events(draw) -> List[dict]:
    """One drawn event; half the time a crash, partition or override
    comes with a later recover, heal or clear (labelled or not)."""
    kind = draw(st.sampled_from(EVENT_KINDS))
    event = {"step": draw(_steps), "kind": kind}
    if kind in ("crash", "recover", "activate_attack", "deactivate_attack"):
        event["nodes"] = draw(_node_sets)
    elif kind == "partition":
        members = draw(st.lists(st.sampled_from(ORACLE_NODES), min_size=2,
                                max_size=5, unique=True))
        cut = draw(st.integers(1, len(members) - 1))
        event["groups"] = [members[:cut], members[cut:]]
    elif kind in LINK_OVERRIDE_KINDS:
        matcher = draw(st.sampled_from(["all", "nodes", "links"]))
        if matcher == "nodes":
            event["nodes"] = draw(_node_sets)
        elif matcher == "links":
            event["links"] = draw(st.lists(st.lists(
                st.sampled_from(ORACLE_NODES), min_size=2, max_size=2,
                unique=True), min_size=1, max_size=2))
        if kind == "slowdown":
            event["factor"] = draw(st.sampled_from([0.5, 2.0, 3.0]))
        elif kind == "delay_spike":
            event["extra_delay"] = draw(st.sampled_from([0.0, 0.002, 0.01]))
        else:
            event["rate"] = draw(st.sampled_from([0.05, 0.3]))
    if kind in ("partition", "heal", "clear") + LINK_OVERRIDE_KINDS:
        event["label"] = draw(_labels)
    events = [event]
    closer = {"crash": "recover", "partition": "heal", "slowdown": "clear",
              "delay_spike": "clear", "drop_rate": "clear"}.get(kind)
    if closer and draw(st.booleans()):
        close = {"step": draw(st.integers(event["step"] + 1,
                                          ORACLE_HORIZON + 1)),
                 "kind": closer}
        if closer == "recover":
            close["nodes"] = event["nodes"]
        else:
            close["label"] = draw(st.sampled_from(["", event["label"]]))
        events.append(close)
    return events


@st.composite
def fault_scenarios(draw) -> List[ScenarioSpec]:
    """Seeds ``R ∈ {1, 3}`` of one drawn scenario: a schedule over the
    whole event vocabulary × delay model × threat."""
    events = [event for group in draw(st.lists(_fault_events(), max_size=6))
              for event in group]
    faults = {"events": events,
              "drop_rate": draw(st.sampled_from([0.0, 0.0, 0.02])),
              "duplicate_rate": draw(st.sampled_from([0.0, 0.1]))}
    base = ScenarioSpec(
        name="oracle", num_steps=draw(st.integers(2, ORACLE_HORIZON)),
        faults=faults,
        delay_model=draw(st.sampled_from(available_delay_models())),
        gradient_rule=draw(st.sampled_from(["median", "multi_krum", "mean"])),
        **draw(st.sampled_from(ORACLE_THREATS)), **ORACLE_SHAPE)
    seed = draw(st.integers(0, 2 ** 16))
    return [base.replace(name=f"oracle-{lane}", seed=seed + lane)
            for lane in range(draw(st.sampled_from([1, 3])))]


@st.composite
def mixed_rule_groups(draw) -> List[ScenarioSpec]:
    """A GAR ablation as one group: a drawn schedule × delay model ×
    worker and server attack, one lane per admissible gradient rule ×
    model rule ``median`` / ``mean``, lane ``i`` at seed ``seed + i % k``
    for k ∈ {1, 2, lanes}: one seed, two seeds that repeat across the
    lanes as ``seed_sweep``'s do, or a seed each."""
    events = [event for group in draw(st.lists(_fault_events(), max_size=4))
              for event in group]
    base = ScenarioSpec(
        name="mixed", num_steps=draw(st.integers(2, ORACLE_HORIZON)),
        faults={"events": events,
                "drop_rate": draw(st.sampled_from([0.0, 0.0, 0.02]))},
        delay_model=draw(st.sampled_from(available_delay_models())),
        worker_attack=draw(st.sampled_from(
            ["sign_flip", "random_gradient", "little_is_enough"])),
        server_attack=draw(st.sampled_from(
            ["corrupted_model", "equivocation", "random_model"])),
        **ORACLE_SHAPE)
    seed, seeds = draw(st.integers(0, 2 ** 16)), draw(st.sampled_from([1, 2, None]))
    lanes = [spec for spec in (base.replace(gradient_rule=gradient, model_rule=model)
                               for gradient in available_rules()
                               for model in ("median", "mean"))
             if admissible([spec])]
    return [spec.replace(name=f"mixed-{spec.gradient_rule}-{spec.model_rule}",
                         seed=seed + lane % (seeds or len(lanes)))
            for lane, spec in enumerate(lanes)]


def _outcome(run_scenario):
    try:
        return run_scenario()
    except RuntimeError as error:
        return error


def admissible(specs: List[ScenarioSpec]) -> bool:
    try:
        specs[0].validate()
    except ValueError:
        return False
    return True


class TestGeneratedFaultOracle:
    """Generated schedules × delay model × threat × R ∈ {1, 3}: the
    batched engine (compiled per-epoch link tables, one delay draw per
    phase and seed) equals the simulator lane by lane, and the compiled
    controller equals the per-message replay above."""

    # No max_examples here: the weekly workflow runs this class under the
    # "weekly" profile of tests/conftest.py, ten times the default budget.
    @settings(deadline=None)
    @given(fault_scenarios().filter(admissible))
    def test_batched_lanes_equal_the_simulator(self, specs):
        event(f"R = {len(specs)}")
        sequential = [_outcome(lambda spec=spec: sequential_history(spec))
                      for spec in specs]
        batched = _outcome(lambda: run_batched_scenarios(specs))
        if any(isinstance(outcome, RuntimeError) for outcome in sequential):
            event("a lane fails")
            assert isinstance(batched, RuntimeError)
            if len(specs) == 1:
                assert str(batched) == str(sequential[0])
            return
        assert not isinstance(batched, RuntimeError), batched
        for got, expected in zip(batched, sequential):
            assert got.to_dict() == expected.to_dict()

    # Fourteen lanes and as many simulator runs an example: a pinned budget.
    @settings(max_examples=15, deadline=None)
    @given(mixed_rule_groups().filter(bool))  # an invalid schedule: none
    def test_mixed_rule_lanes_equal_the_simulator(self, specs):
        assert len({spec.gradient_rule for spec in specs}) > 1
        seeds = len({spec.seed for spec in specs})
        event("a seed each" if seeds == len(specs) else f"{seeds} seed(s)")
        sequential = [_outcome(lambda spec=spec: sequential_history(spec))
                      for spec in specs]
        batched = _outcome(lambda: run_batched_scenarios(specs))
        if any(isinstance(outcome, RuntimeError) for outcome in sequential):
            event("a lane fails")
            assert isinstance(batched, RuntimeError)
            return
        assert not isinstance(batched, RuntimeError), batched
        for got, expected in zip(batched, sequential):
            assert got.to_dict() == expected.to_dict()

    @settings(deadline=None)
    @given(fault_scenarios().filter(admissible))
    def test_on_send_equals_the_per_message_replay(self, specs):
        schedule = specs[0].faults or FaultSchedule()
        seed = specs[0].seed
        controller = FaultController(schedule, seed=seed)
        windows = _reference_windows(schedule)
        for step in range(ORACLE_HORIZON + 2):
            for sender in ORACLE_NODES:
                for recipient in ORACLE_NODES:
                    for kind in ORACLE_KINDS:
                        assert controller.on_send(
                            sender, recipient, kind, step) == \
                            reference_on_send(schedule, windows, seed,
                                              sender, recipient, kind, step)
