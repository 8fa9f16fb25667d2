"""Tests for the thread-based runtime (real concurrency).

The mailbox its node threads run on is tested in ``tests/test_mailbox.py``,
once for both wires.
"""

import numpy as np
import pytest

from repro.adversary import CorruptedModelAttack, RandomGradientAttack
from repro.core import ClusterConfig
from repro.metrics import evaluate_accuracy
from repro.nn.schedules import ConstantSchedule
from repro.runtime.threads import QuorumTimeout, ThreadedClusterRuntime


class TestThreadedClusterRuntime:
    def _runtime(self, blobs_split, model_fn, **kwargs):
        train, _ = blobs_split
        config = kwargs.pop("config", ClusterConfig(num_servers=3, num_workers=4))
        return ThreadedClusterRuntime(config=config, model_fn=model_fn,
                                      train_dataset=train, batch_size=16,
                                      schedule=ConstantSchedule(0.05), seed=0,
                                      **kwargs)

    def test_runs_and_learns(self, blobs_split, softmax_model_fn):
        train, test = blobs_split
        runtime = self._runtime(blobs_split, softmax_model_fn)
        history = runtime.run(num_steps=25)
        assert len(history) == 25
        model = softmax_model_fn()
        model.set_flat_parameters(runtime.global_parameters())
        assert evaluate_accuracy(model, test) > 0.8

    def test_correct_servers_agree_after_run(self, blobs_split, softmax_model_fn):
        runtime = self._runtime(blobs_split, softmax_model_fn)
        history = runtime.run(num_steps=10)
        final_spread = history.records[-1].max_server_spread
        assert final_spread is not None and final_spread < 1.0

    def test_tolerates_byzantine_nodes_with_jitter(self, blobs_split,
                                                   softmax_model_fn):
        train, test = blobs_split
        config = ClusterConfig(num_servers=6, num_workers=9,
                               num_byzantine_servers=1, num_byzantine_workers=2)
        runtime = ThreadedClusterRuntime(
            config=config, model_fn=softmax_model_fn, train_dataset=train,
            batch_size=16, schedule=ConstantSchedule(0.05), seed=0, jitter=0.002,
            worker_attack=RandomGradientAttack(scale=100.0), num_attacking_workers=2,
            server_attack=CorruptedModelAttack(noise_scale=100.0),
            num_attacking_servers=1)
        runtime.run(num_steps=25)
        model = softmax_model_fn()
        model.set_flat_parameters(runtime.global_parameters())
        assert evaluate_accuracy(model, test) > 0.8

    def test_byzantine_server_keeps_theta0(self, blobs_split,
                                          softmax_model_fn):
        """The simulated engines' rule: a Byzantine server waits for its
        quorums but installs nothing, so its attack perturbs θ0."""
        config = ClusterConfig(num_servers=6, num_workers=9,
                               num_byzantine_servers=1, num_byzantine_workers=2)
        runtime = self._runtime(
            blobs_split, softmax_model_fn, config=config,
            server_attack=CorruptedModelAttack(), num_attacking_servers=1)
        runtime.run(num_steps=3)
        byzantine = runtime.servers[-1]
        assert byzantine.node_id == "ps/5" and byzantine.is_byzantine
        np.testing.assert_array_equal(byzantine.current_parameters(),
                                      softmax_model_fn().get_flat_parameters())

    def test_straggler_does_not_block_progress(self, blobs_split, softmax_model_fn):
        config = ClusterConfig(num_servers=3, num_workers=6)
        runtime = self._runtime(blobs_split, softmax_model_fn, config=config,
                                straggler_sleep={"worker/5": 0.02})
        history = runtime.run(num_steps=5)
        assert len(history) == 5

    def test_attack_count_validation(self, blobs_split, softmax_model_fn):
        with pytest.raises(ValueError):
            self._runtime(blobs_split, softmax_model_fn,
                          worker_attack=RandomGradientAttack(),
                          num_attacking_workers=1)

    def test_invalid_num_steps(self, blobs_split, softmax_model_fn):
        runtime = self._runtime(blobs_split, softmax_model_fn)
        with pytest.raises(ValueError):
            runtime.run(num_steps=0)

    def test_full_quorum_mean_run_repeats_bit_for_bit(self, blobs_split,
                                                      softmax_model_fn):
        """``mean`` is not bit-level permutation-invariant, so this holds
        only because quorum payloads come back in sender order, whatever
        order the racing threads delivered them in."""
        def run_once():
            runtime = self._runtime(
                blobs_split, softmax_model_fn, gradient_rule_name="mean",
                config=ClusterConfig(num_servers=3, num_workers=4,
                                     model_quorum=3, gradient_quorum=4))
            history = runtime.run(num_steps=6)
            return ([record.train_loss for record in history.records],
                    runtime.global_parameters().tobytes())

        assert run_once() == run_once()

    def test_stalled_server_triggers_quorum_timeout(self, blobs_split,
                                                    softmax_model_fn):
        """The QuorumTimeout path: a stalled server starves the quorums.

        With 3 servers the workers' model quorum is all 3, so one server
        sleeping past the deadline before each broadcast makes every worker
        time out — and :meth:`run` must surface that node error instead of
        silently returning an empty history.
        """
        runtime = self._runtime(blobs_split, softmax_model_fn,
                                straggler_sleep={"ps/0": 1.0},
                                quorum_timeout=0.2)
        with pytest.raises(QuorumTimeout, match="timed out waiting"):
            runtime.run(num_steps=2)
