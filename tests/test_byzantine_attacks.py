"""Tests for the Byzantine worker and server behaviours."""

import numpy as np
import pytest

from repro.adversary import (
    STATELESS,
    AttackContext,
    CorruptedModelAttack,
    EquivocationAttack,
    LabelFlipPoisoning,
    LittleIsEnoughAttack,
    RandomGradientAttack,
    RandomModelAttack,
    ReversedGradientAttack,
    SignFlipAttack,
    SilentServer,
    SilentWorker,
    StaleModelAttack,
    available,
)
from repro.adversary import get as get_attack


def available_attacks():
    return available(STATELESS)


def _context(honest, peers=(), recipient=None, step=0, seed=0):
    return AttackContext(step=step, honest_value=np.asarray(honest, dtype=float),
                         peer_values=list(peers),
                         rng=np.random.default_rng(seed), recipient=recipient)


class TestWorkerAttacks:
    def test_random_gradient_is_large_and_unrelated(self):
        attack = RandomGradientAttack(scale=100.0)
        honest = np.zeros(50)
        out = attack.corrupt_gradient(_context(honest))
        assert out.shape == honest.shape
        assert np.linalg.norm(out) > 100.0

    def test_random_gradient_invalid_scale(self):
        with pytest.raises(ValueError):
            RandomGradientAttack(scale=0.0)

    def test_reversed_gradient_flips_and_scales(self):
        attack = ReversedGradientAttack(factor=10.0)
        honest = np.array([1.0, -2.0])
        assert np.allclose(attack.corrupt_gradient(_context(honest)), [-10.0, 20.0])

    def test_sign_flip_is_exact_negation(self):
        attack = SignFlipAttack()
        honest = np.array([0.5, -0.25, 3.0])
        assert np.allclose(attack.corrupt_gradient(_context(honest)), -honest)

    def test_little_is_enough_stays_near_peer_statistics(self):
        rng = np.random.default_rng(0)
        peers = [rng.normal(0.0, 1.0, size=20) for _ in range(10)]
        attack = LittleIsEnoughAttack(z_factor=1.5)
        out = attack.corrupt_gradient(_context(np.zeros(20), peers=peers))
        stacked = np.stack(peers)
        expected = stacked.mean(axis=0) - 1.5 * stacked.std(axis=0)
        assert np.allclose(out, expected)

    def test_little_is_enough_without_peers_falls_back(self):
        attack = LittleIsEnoughAttack(z_factor=2.0)
        honest = np.array([1.0, 2.0])
        assert np.allclose(attack.corrupt_gradient(_context(honest)), -2.0 * honest)

    def test_label_flip_poisons_batch_not_message(self):
        attack = LabelFlipPoisoning(num_classes=10)
        features = np.zeros((4, 3))
        labels = np.array([0, 1, 8, 9])
        _, flipped = attack.poison_batch(features, labels, _context(np.zeros(3)))
        assert np.array_equal(flipped, [9, 8, 1, 0])
        # The gradient message itself is passed through unchanged.
        honest = np.array([1.0, 2.0])
        assert np.allclose(attack.corrupt_gradient(_context(honest)), honest)

    def test_silent_worker_returns_none(self):
        assert SilentWorker().corrupt_gradient(_context(np.ones(3))) is None

    def test_default_poison_batch_is_noop(self):
        attack = SignFlipAttack()
        features, labels = np.ones((2, 2)), np.array([0, 1])
        out_features, out_labels = attack.poison_batch(features, labels,
                                                       _context(np.zeros(2)))
        assert out_features is features
        assert out_labels is labels


class TestServerAttacks:
    def test_corrupted_model_adds_large_noise(self):
        attack = CorruptedModelAttack(noise_scale=50.0)
        honest = np.zeros(100)
        out = attack.corrupt_model(_context(honest))
        assert np.linalg.norm(out) > 100.0

    def test_random_model_ignores_honest_value(self):
        attack = RandomModelAttack(scale=10.0)
        honest = np.full(30, 7.0)
        out = attack.corrupt_model(_context(honest))
        assert not np.allclose(out, honest)

    def test_equivocation_sends_different_values_to_different_recipients(self):
        attack = EquivocationAttack(magnitude=5.0)
        honest = np.ones(40)
        to_a = attack.corrupt_model(_context(honest, recipient="worker/0"))
        to_b = attack.corrupt_model(_context(honest, recipient="worker/1"))
        assert not np.allclose(to_a, to_b)

    def test_equivocation_consistent_for_same_recipient_and_step(self):
        attack = EquivocationAttack(magnitude=5.0)
        honest = np.ones(40)
        first = attack.corrupt_model(_context(honest, recipient="worker/0", step=3))
        second = attack.corrupt_model(_context(honest, recipient="worker/0", step=3))
        assert np.allclose(first, second)

    def test_stale_model_freezes_first_value(self):
        attack = StaleModelAttack()
        first = attack.corrupt_model(_context(np.zeros(5), step=0))
        later = attack.corrupt_model(_context(np.full(5, 10.0), step=100))
        assert np.allclose(first, later)

    def test_silent_server_returns_none(self):
        assert SilentServer().corrupt_model(_context(np.ones(3))) is None


class TestAttackRegistry:
    def test_all_attacks_registered(self):
        names = available_attacks()
        for expected in ("random_gradient", "reversed_gradient", "sign_flip",
                         "little_is_enough", "label_flip", "silent_worker",
                         "corrupted_model", "random_model", "equivocation",
                         "stale_model", "silent_server"):
            assert expected in names

    def test_get_attack_with_kwargs(self):
        attack = get_attack("reversed_gradient", factor=3.0)
        assert isinstance(attack, ReversedGradientAttack)
        assert attack.factor == 3.0

    def test_unknown_attack_raises(self):
        with pytest.raises(KeyError):
            get_attack("teleport")


class TestRegisteredAttackProperties:
    """Property tests over *every* registered attack.

    Two invariants the runtimes rely on:

    * **determinism** — for a fixed seed (and fresh attack state) the
      corruption is bit-identical across invocations; nothing may draw
      from global randomness or per-process salted hashes;
    * **honest inputs untouched** — the honest gradient, the observed peer
      gradients and the training batch are never mutated in place, and a
      non-silent corruption preserves the honest value's shape and float
      dtype.
    """

    @staticmethod
    def _context(seed=7, step=3, dimension=24):
        rng = np.random.default_rng(seed + 1000)
        honest = rng.normal(size=dimension)
        peers = [rng.normal(size=dimension) for _ in range(5)]
        return AttackContext(step=step, honest_value=honest,
                             peer_values=peers,
                             rng=np.random.default_rng(seed),
                             recipient="ps/1")

    @staticmethod
    def _corrupt(attack, context):
        if hasattr(attack, "corrupt_gradient"):
            return attack.corrupt_gradient(context)
        return attack.corrupt_model(context)

    @pytest.mark.parametrize("name", available_attacks())
    def test_deterministic_for_fixed_seed(self, name):
        outputs = [self._corrupt(get_attack(name), self._context())
                   for _ in range(2)]
        if outputs[0] is None:
            assert outputs[1] is None
        else:
            np.testing.assert_array_equal(outputs[0], outputs[1])

    @pytest.mark.parametrize("name", available_attacks())
    def test_honest_inputs_never_mutated(self, name):
        context = self._context()
        honest_before = context.honest_value.copy()
        peers_before = [peer.copy() for peer in context.peer_values]
        output = self._corrupt(get_attack(name), context)
        np.testing.assert_array_equal(context.honest_value, honest_before)
        for peer, before in zip(context.peer_values, peers_before):
            np.testing.assert_array_equal(peer, before)
        if output is not None:
            assert output.shape == honest_before.shape
            assert np.issubdtype(np.asarray(output).dtype, np.floating)

    @pytest.mark.parametrize("name", available_attacks())
    def test_poison_batch_leaves_originals_untouched(self, name):
        attack = get_attack(name)
        if not hasattr(attack, "poison_batch"):
            pytest.skip("server attacks have no data-poisoning hook")
        rng = np.random.default_rng(0)
        features = rng.normal(size=(8, 4))
        labels = rng.integers(0, 4, size=8)
        features_before = features.copy()
        labels_before = labels.copy()
        context = self._context()
        poisoned_features, poisoned_labels = attack.poison_batch(
            features, labels, context)
        np.testing.assert_array_equal(features, features_before)
        np.testing.assert_array_equal(labels, labels_before)
        assert np.asarray(poisoned_features).shape == features_before.shape
        assert np.asarray(poisoned_labels).shape == labels_before.shape
