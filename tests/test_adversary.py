"""Tests for the adaptive adversary engine (repro.adversary)."""

import threading

import numpy as np
import pytest

from repro.adversary import (
    STATELESS,
    AdversaryCoordinator,
    AdversaryWorkerAttack,
    AttackContext,
    CollusionAdversary,
    ObservationTimeout,
    OmniscientDescentAdversary,
    OscillatingAdversary,
    RoundObservation,
    RoundPlan,
    SignFlipAttack,
    SleeperAdversary,
    StatelessAdversary,
    available,
    get,
    lift,
    make_binding,
)
from repro.adversary.engine import wire_attacks
from repro.campaign.spec import AttackSpec, ScenarioSpec
from repro.core import ClusterConfig


def available_adversaries():
    return available("adversary")


def get_adversary(name, **kwargs):
    return lift(get(name, **kwargs))


def _binding(adversary, num_workers=6, num_byzantine=2, seed=7):
    worker_ids = [f"worker/{i}" for i in range(num_workers)]
    server_ids = [f"ps/{i}" for i in range(3)]
    return make_binding(
        adversary, seed=seed, worker_ids=worker_ids, server_ids=server_ids,
        num_attacking_workers=num_byzantine, num_attacking_servers=0,
        gradient_rule_name="multi_krum", declared_byzantine_workers=num_byzantine,
        declared_byzantine_servers=0, gradient_quorum=num_workers,
        model_quorum=3)


def _observation(step=0, gradients=None, seed=1, count=7):
    gradients = gradients if gradients is not None else [
        np.full(4, float(i + 1)) for i in range(count)]
    return RoundObservation(step=step, honest_gradients=gradients,
                            rng=np.random.default_rng(seed))


class TestRegistry:
    def test_native_adversaries_registered(self):
        names = available_adversaries()
        assert {"omniscient_descent", "collusion", "sleeper",
                "oscillating"} <= set(names)

    def test_legacy_attack_names_wrap_as_stateless(self):
        adversary = get_adversary("sign_flip")
        assert isinstance(adversary, StatelessAdversary)
        assert adversary.name == "sign_flip"
        assert adversary.attacks_workers and not adversary.attacks_servers

    def test_server_attack_wraps_with_server_side(self):
        adversary = get_adversary("corrupted_model", noise_scale=5.0)
        assert adversary.attacks_servers and not adversary.attacks_workers

    def test_unknown_name_raises_listing_both_kinds(self):
        with pytest.raises(KeyError, match="stateless attacks"):
            get_adversary("nope")

    def test_every_registered_name_has_exactly_one_kind(self):
        assert sorted(available(STATELESS) + available("adversary")) \
            == available()


class TestRoundPlan:
    def test_explicit_payload_and_silence(self):
        vector = np.ones(3)
        plan = RoundPlan(payloads={"worker/5": vector, "worker/4": None})
        honest = np.full(3, 2.0)
        assert plan.payload_for("worker/5", honest) is vector
        assert plan.payload_for("worker/4", honest) is None

    def test_fallbacks(self):
        honest = np.full(3, 2.0)
        assert np.array_equal(RoundPlan().payload_for("w", honest), honest)
        scaled = RoundPlan(fallback_scale=-4.0).payload_for("w", honest)
        assert np.array_equal(scaled, -4.0 * honest)


class TestOmniscientDescent:
    def test_plan_is_collusive_and_deterministic(self):
        results = []
        for _ in range(2):
            adversary = OmniscientDescentAdversary(num_amplitudes=4)
            adversary.bind(_binding(adversary, num_workers=9))
            plan = adversary.plan_round(_observation())
            results.append(plan)
        byzantine = ["worker/7", "worker/8"]
        for plan in results:
            assert set(plan.payloads) == set(byzantine)
            assert np.array_equal(plan.payloads[byzantine[0]],
                                  plan.payloads[byzantine[1]])
        assert np.array_equal(results[0].payloads["worker/7"],
                              results[1].payloads["worker/7"])

    def test_attack_moves_aggregate_against_descent(self):
        adversary = OmniscientDescentAdversary(num_amplitudes=6)
        binding = _binding(adversary, num_workers=9)
        adversary.bind(binding)
        observation = _observation(
            gradients=[np.full(4, 1.0) + 0.1 * np.arange(4) * i
                       for i in range(1, 8)])
        plan = adversary.plan_round(observation)
        vector = plan.payloads["worker/8"]
        honest = np.stack(observation.honest_gradients)
        mean = honest.mean(axis=0)
        attacked = binding.gradient_rule(
            np.concatenate([np.tile(vector, (2, 1)), honest]))
        clean = binding.gradient_rule(honest)
        assert np.dot(attacked, mean) < np.dot(clean, mean)

    def test_no_observation_falls_back_to_reversal(self):
        adversary = OmniscientDescentAdversary(max_amplitude=3.0)
        adversary.bind(_binding(adversary))
        plan = adversary.plan_round(RoundObservation(step=0))
        honest = np.ones(4)
        assert np.array_equal(plan.payload_for("worker/5", honest),
                              -3.0 * honest)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            OmniscientDescentAdversary(max_amplitude=0.0)
        with pytest.raises(ValueError):
            OmniscientDescentAdversary(num_amplitudes=1)


class TestCollusion:
    def test_single_crafted_vector_for_all_nodes(self):
        adversary = CollusionAdversary(attack="little_is_enough",
                                       attack_kwargs={"z_factor": 2.0})
        adversary.bind(_binding(adversary))
        plan = adversary.plan_round(_observation())
        assert plan.payloads["worker/4"] is plan.payloads["worker/5"]
        stacked = np.stack(_observation().honest_gradients)
        expected = stacked.mean(axis=0) - 2.0 * stacked.std(axis=0)
        assert np.allclose(plan.payloads["worker/4"], expected)

    def test_rejects_server_attack_as_inner(self):
        with pytest.raises(ValueError, match="server attack"):
            CollusionAdversary(attack="corrupted_model")


class TestTimeCoupling:
    def test_sleeper_honest_then_active(self):
        adversary = SleeperAdversary(wake_step=3, sleep_step=5,
                                     inner="collusion")
        adversary.bind(_binding(adversary))
        for step, active in [(0, False), (2, False), (3, True), (4, True),
                             (5, False), (9, False)]:
            plan = adversary.plan_round(_observation(step=step))
            honest = np.full(4, 5.0)
            payload = plan.payload_for("worker/5", honest)
            if active:
                assert not np.array_equal(payload, honest)
            else:
                assert np.array_equal(payload, honest)

    def test_sleeper_validates_window(self):
        with pytest.raises(ValueError):
            SleeperAdversary(wake_step=5, sleep_step=5)
        with pytest.raises(ValueError):
            SleeperAdversary(wake_step=-1)

    def test_oscillating_duty_cycle(self):
        adversary = OscillatingAdversary(period=2, inner="sign_flip")
        assert [adversary._active(step) for step in range(6)] == \
            [False, False, True, True, False, False]
        flipped = OscillatingAdversary(period=2, start_active=True,
                                       inner="sign_flip")
        assert flipped._active(0) and not flipped._active(2)

    def test_gated_stateless_inner_delegates_per_call(self):
        adversary = SleeperAdversary(wake_step=1, inner="sign_flip")
        adversary.bind(_binding(adversary))
        assert adversary.requires_observation is False
        honest = np.array([1.0, -2.0])
        asleep = AttackContext(step=0, honest_value=honest)
        awake = AttackContext(step=1, honest_value=honest)
        assert np.array_equal(adversary.worker_gradient(asleep), honest)
        assert np.array_equal(adversary.worker_gradient(awake), -honest)

    def test_time_coupled_adversaries_cannot_nest(self):
        with pytest.raises(ValueError, match="nest"):
            SleeperAdversary(inner="oscillating")


class TestStatelessWrapper:
    def test_bitwise_identical_to_legacy_seam(self):
        attack = SignFlipAttack()
        adversary = StatelessAdversary(SignFlipAttack())
        context = AttackContext(step=0, honest_value=np.arange(4.0),
                                rng=np.random.default_rng(0))
        assert np.array_equal(adversary.worker_gradient(context),
                              attack.corrupt_gradient(context))

    def test_rejects_non_attacks(self):
        with pytest.raises(TypeError):
            StatelessAdversary(object())


class TestCoordinator:
    def test_rebinding_is_rejected(self):
        adversary = CollusionAdversary()
        adversary.bind(_binding(adversary))
        with pytest.raises(RuntimeError, match="already bound"):
            AdversaryCoordinator(adversary, _binding(CollusionAdversary()))

    def test_plan_cached_per_step(self):
        adversary = CollusionAdversary()
        coordinator = AdversaryCoordinator(adversary, _binding(adversary))
        peers = [np.full(4, float(i)) for i in range(1, 4)]
        contexts = [AttackContext(step=2, honest_value=np.zeros(4),
                                  peer_values=peers) for _ in range(2)]
        first = coordinator.worker_gradient("worker/4", contexts[0])
        # Second call must reuse the cached plan even with no peers visible.
        second = coordinator.worker_gradient(
            "worker/5", AttackContext(step=2, honest_value=np.zeros(4)))
        assert np.array_equal(first, second)

    def test_board_mode_blocks_until_observation_complete(self):
        adversary = CollusionAdversary()
        binding = _binding(adversary, num_workers=4, num_byzantine=1)
        coordinator = AdversaryCoordinator(adversary, binding)
        coordinator.enable_board(lambda step: binding.honest_workers(),
                                 timeout=5.0)
        outputs = []

        def byzantine():
            context = AttackContext(step=0, honest_value=np.zeros(3))
            outputs.append(coordinator.worker_gradient("worker/3", context))

        thread = threading.Thread(target=byzantine)
        thread.start()
        for index, worker_id in enumerate(binding.honest_workers()):
            coordinator.publish(worker_id, 0, np.full(3, float(index + 1)))
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        gradients = np.stack([np.full(3, float(i + 1)) for i in range(3)])
        expected = gradients.mean(axis=0) - 1.5 * gradients.std(axis=0)
        assert np.allclose(outputs[0], expected)

    def test_plans_retained_for_lagging_byzantine_workers(self):
        """Pruning keys off the *slowest* controlled worker's step.

        If retention followed the newest plan, a Byzantine worker lagging
        more than the retention window behind its fast peer would find
        neither plan nor board for its step and starve (the honest workers
        never republish old gradients).
        """
        adversary = CollusionAdversary()
        coordinator = AdversaryCoordinator(adversary, _binding(adversary))
        peers = [np.full(4, float(i)) for i in range(1, 4)]

        def query(node_id, step):
            return coordinator.worker_gradient(
                node_id, AttackContext(step=step, honest_value=np.zeros(4),
                                       peer_values=peers))

        # The fast worker races 10 steps ahead of its peer.
        fast = {step: query("worker/5", step) for step in range(10)}
        # The lagging worker still gets the cached plans, bit-identical.
        for step in range(10):
            np.testing.assert_array_equal(query("worker/4", step),
                                          fast[step])
        # Once both workers passed a step, old plans are pruned.
        assert min(coordinator._plans) >= 10 - 1 - 4  # retention window

    def test_memory_bounded_when_a_controlled_worker_never_queries(self):
        """A crashed Byzantine worker must not pin retention forever.

        With one controlled worker never querying (e.g. crashed by a fault
        schedule), plans still get pruned once the skew exceeds the hard
        retention bound, so long runs stay bounded.
        """
        from repro.adversary.engine import (
            _PLAN_HARD_RETENTION_STEPS,
            _PLAN_RETENTION_STEPS,
        )

        adversary = CollusionAdversary()
        coordinator = AdversaryCoordinator(adversary, _binding(adversary))
        peers = [np.full(4, float(i)) for i in range(1, 4)]
        total = _PLAN_HARD_RETENTION_STEPS + 40
        for step in range(total):  # worker/4 never queries
            coordinator.worker_gradient(
                "worker/5", AttackContext(step=step, honest_value=np.zeros(4),
                                          peer_values=peers))
        bound = _PLAN_HARD_RETENTION_STEPS + _PLAN_RETENTION_STEPS + 1
        assert len(coordinator._plans) <= bound

    def test_query_below_pruned_horizon_degrades_instead_of_timing_out(self):
        """An extreme straggler gets the fallback plan, not a dead run.

        Once a step's board entries fell past the hard-retention horizon
        the honest gradients will never be republished — waiting can only
        end in ObservationTimeout, so the coordinator must serve the
        no-observation fallback immediately.
        """
        from repro.adversary.engine import _PLAN_HARD_RETENTION_STEPS

        adversary = CollusionAdversary()
        binding = _binding(adversary, num_workers=5, num_byzantine=2)
        coordinator = AdversaryCoordinator(adversary, binding)
        coordinator.enable_board(lambda step: binding.honest_workers(),
                                 timeout=0.5)
        far_ahead = _PLAN_HARD_RETENTION_STEPS + 20
        for worker_id in binding.honest_workers():
            coordinator.publish(worker_id, far_ahead, np.ones(3))
        coordinator.worker_gradient(
            "worker/4", AttackContext(step=far_ahead,
                                      honest_value=np.zeros(3)))
        # worker/3 straggles below the pruned horizon: no timeout, the
        # collusion fallback (scaled reversal) is served instead.
        honest = np.full(3, 2.0)
        value = coordinator.worker_gradient(
            "worker/3", AttackContext(step=0, honest_value=honest))
        np.testing.assert_array_equal(value, -1.0 * honest)

    def test_dormant_gated_adversary_skips_the_board_wait(self):
        """During a sleeper's honest window no observation is needed.

        With the board armed but nothing published, a dormant-step query
        must return the honest plan immediately instead of blocking until
        timeout — Byzantine threads must not stall honest rounds they will
        not even corrupt.
        """
        adversary = SleeperAdversary(wake_step=50, inner="collusion")
        binding = _binding(adversary, num_workers=4, num_byzantine=1)
        coordinator = AdversaryCoordinator(adversary, binding)
        coordinator.enable_board(lambda step: binding.honest_workers(),
                                 timeout=0.2)
        honest = np.full(3, 2.0)
        value = coordinator.worker_gradient(
            "worker/3", AttackContext(step=0, honest_value=honest))
        np.testing.assert_array_equal(value, honest)  # and no timeout

    def test_board_timeout_raises(self):
        adversary = CollusionAdversary()
        binding = _binding(adversary, num_workers=4, num_byzantine=1)
        coordinator = AdversaryCoordinator(adversary, binding)
        coordinator.enable_board(lambda step: binding.honest_workers(),
                                 timeout=0.05)
        with pytest.raises(ObservationTimeout):
            coordinator.worker_gradient(
                "worker/3", AttackContext(step=0, honest_value=np.zeros(3)))

    def test_wire_attacks_assigns_adapters(self):
        coordinator, workers, servers, attacking_workers, attacking_servers \
            = wire_attacks(
                config=ClusterConfig(num_servers=3, num_workers=6,
                                     num_byzantine_servers=0,
                                     num_byzantine_workers=1),
                seed=7, adversary=CollusionAdversary(),
                num_attacking_workers=1)
        assert isinstance(workers["worker/5"], AdversaryWorkerAttack)
        assert workers["worker/0"] is None
        assert all(attack is None for attack in servers.values())
        assert workers["worker/5"].coordinator is coordinator
        assert attacking_workers == {"worker/5"}
        assert attacking_servers == set()


class TestAdversarySpec:
    def test_round_trip_and_coercion(self):
        spec = ScenarioSpec(adversary="collusion")
        assert isinstance(spec.adversary, AttackSpec)
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone.adversary == spec.adversary

    def test_json_round_trip_with_kwargs(self):
        spec = ScenarioSpec(adversary={
            "name": "sleeper",
            "kwargs": {"wake_step": 4, "inner": "collusion",
                       "inner_kwargs": {"attack": "sign_flip"}}})
        clone = ScenarioSpec.from_json(spec.to_json())
        assert clone.adversary.kwargs["inner_kwargs"] == {"attack": "sign_flip"}
        clone.validate()

    def test_absent_adversary_keeps_legacy_hash(self):
        spec = ScenarioSpec()
        payload = spec.to_dict()
        assert payload["adversary"] is None
        del payload["adversary"]  # a pre-adversary-era stored spec
        assert ScenarioSpec.from_dict(payload).spec_hash() == spec.spec_hash()
        assert ScenarioSpec.from_dict(payload).batch_group_hash() == \
            spec.batch_group_hash()

    def test_adversary_changes_hash(self):
        assert ScenarioSpec(adversary="collusion").spec_hash() != \
            ScenarioSpec().spec_hash()

    def test_validation_rejects_mixing_with_legacy_attacks(self):
        with pytest.raises(ValueError, match="not both"):
            ScenarioSpec(adversary="collusion",
                         worker_attack="sign_flip").validate()

    def test_validation_rejects_unknown_adversary(self):
        with pytest.raises(ValueError, match="unknown adversary"):
            ScenarioSpec(adversary="nope").validate()

    def test_validation_rejects_bad_kwargs(self):
        with pytest.raises(ValueError, match="invalid kwargs"):
            ScenarioSpec(adversary={"name": "collusion",
                                    "kwargs": {"bogus": 1}}).validate()

    def test_validation_rejects_single_server_trainers(self):
        with pytest.raises(ValueError, match="single-server"):
            ScenarioSpec(trainer="vanilla", adversary="collusion").validate()

    def test_resolved_counts_follow_adversary_sides(self):
        worker_side = ScenarioSpec(adversary="collusion")
        assert worker_side.resolved_num_attacking_workers() == \
            worker_side.declared_byzantine_workers
        assert worker_side.resolved_num_attacking_servers() == 0
        server_side = ScenarioSpec(adversary="corrupted_model")
        assert server_side.resolved_num_attacking_workers() == 0
        assert server_side.resolved_num_attacking_servers() == \
            server_side.declared_byzantine_servers

    def test_validate_accepts_every_native_adversary(self):
        for name in available_adversaries():
            ScenarioSpec(adversary=name).validate()
