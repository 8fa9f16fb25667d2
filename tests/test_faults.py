"""Tests for the fault-schedule engine (repro.faults) across both runtimes."""

import numpy as np
import pytest

from repro.adversary import RandomGradientAttack, SignFlipAttack
from repro.core import ClusterConfig, GuanYuTrainer, VanillaTrainer
from repro.faults import (
    FaultController,
    FaultEvent,
    FaultSchedule,
    GatedWorkerAttack,
)
from repro.metrics import evaluate_accuracy
from repro.network import ConstantDelay, MessageKind, NetworkSimulator
from repro.nn.schedules import ConstantSchedule
from repro.runtime.threads import ThreadedClusterRuntime


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

    def test_link_effects_combine(self):
        controller = self._controller()
        factor, extra, _ = controller.link_effects("worker/1", "ps/2", 2)
        assert factor == pytest.approx(4.0)
        factor, _, _ = controller.link_effects("worker/1", "ps/2", 5)
        assert factor == pytest.approx(1.0)  # cleared
        _, extra, _ = controller.link_effects("ps/2", "ps/1", 0)
        assert extra == pytest.approx(0.25)  # link pair matches both ways

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

    def test_on_step_reports_each_step_once(self):
        controller = self._controller()
        fired = controller.on_step(3)
        assert [event.kind for event in fired] == ["crash"]
        assert controller.on_step(3) == []

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

    def test_single_server_trainers_reject_faults(self, blobs_split,
                                                  softmax_model_fn):
        train, _ = blobs_split
        with pytest.raises(ValueError, match="trusted server"):
            VanillaTrainer(model_fn=softmax_model_fn, train_dataset=train,
                           num_workers=4,
                           fault_schedule=FaultSchedule.crash_window(
                               ["worker/0"], 1, 2))


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
