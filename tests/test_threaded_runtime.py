"""Tests for the thread-based runtime (real concurrency)."""

import numpy as np
import pytest

from repro.adversary import CorruptedModelAttack, RandomGradientAttack
from repro.core import ClusterConfig
from repro.metrics import evaluate_accuracy
from repro.nn.schedules import ConstantSchedule
from repro.runtime.threads import QuorumTimeout, ThreadedClusterRuntime, ThreadedTransport
from repro.network.message import MessageKind


class TestThreadedTransport:
    def test_send_and_wait_quorum(self):
        transport = ThreadedTransport(["a", "b"])
        transport.send("a", "b", MessageKind.MODEL_TO_WORKER, 0, np.ones(3))
        payloads = transport.wait_quorum("b", MessageKind.MODEL_TO_WORKER, 0, 1,
                                         timeout=1.0)
        assert len(payloads) == 1
        assert np.allclose(payloads[0], 1.0)

    def test_silent_payload_not_delivered(self):
        transport = ThreadedTransport(["a", "b"])
        transport.send("a", "b", MessageKind.MODEL_TO_WORKER, 0, None)
        with pytest.raises(QuorumTimeout):
            transport.wait_quorum("b", MessageKind.MODEL_TO_WORKER, 0, 1, timeout=0.2)

    def test_duplicate_senders_count_once(self):
        transport = ThreadedTransport(["a", "b"])
        transport.send("a", "b", MessageKind.MODEL_TO_WORKER, 0, np.zeros(2))
        transport.send("a", "b", MessageKind.MODEL_TO_WORKER, 0, np.ones(2))
        with pytest.raises(QuorumTimeout):
            transport.wait_quorum("b", MessageKind.MODEL_TO_WORKER, 0, 2, timeout=0.2)

    def test_unknown_recipient_raises(self):
        transport = ThreadedTransport(["a"])
        with pytest.raises(KeyError):
            transport.send("a", "ghost", MessageKind.MODEL_TO_WORKER, 0, np.zeros(1))

    def test_messages_for_other_steps_do_not_satisfy_quorum(self):
        transport = ThreadedTransport(["a", "b"])
        transport.send("a", "b", MessageKind.MODEL_TO_WORKER, 1, np.zeros(1))
        with pytest.raises(QuorumTimeout):
            transport.wait_quorum("b", MessageKind.MODEL_TO_WORKER, 0, 1, timeout=0.2)


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

    def test_wait_quorum_timeout_message_names_the_shortfall(self):
        transport = ThreadedTransport(["a", "b"])
        transport.send("a", "b", MessageKind.MODEL_TO_WORKER, 0, np.ones(2))
        with pytest.raises(QuorumTimeout, match=r"2 .* at step 0 \(got 1\)"):
            transport.wait_quorum("b", MessageKind.MODEL_TO_WORKER, 0, 2,
                                  timeout=0.2)


class TestJitterDeterminism:
    """Delivery jitter must be reproducible under a fixed transport seed."""

    def _recorded_delays(self, monkeypatch, seed, num_messages=20):
        recorded = []

        class ImmediateTimer:
            """Capture the sampled delay, then deliver synchronously."""

            def __init__(self, delay, function, args=()):
                recorded.append(float(delay))
                self._function = function
                self._args = args

            def start(self):
                self._function(*self._args)

        monkeypatch.setattr("repro.runtime.threads.threading.Timer",
                            ImmediateTimer)
        transport = ThreadedTransport(["a", "b"], jitter=0.01, seed=seed)
        for step in range(num_messages):
            transport.send("a", "b", MessageKind.MODEL_TO_WORKER, step,
                           np.ones(2))
        # Jittered messages still arrive (quorum satisfiable per step).
        payloads = transport.wait_quorum("b", MessageKind.MODEL_TO_WORKER, 0, 1,
                                         timeout=0.5)
        assert len(payloads) == 1
        return recorded

    def test_same_seed_means_identical_delay_sequence(self, monkeypatch):
        first = self._recorded_delays(monkeypatch, seed=123)
        second = self._recorded_delays(monkeypatch, seed=123)
        assert first == second
        assert len(first) == 20
        assert all(0.0 <= delay <= 0.01 for delay in first)

    def test_different_seeds_sample_different_delays(self, monkeypatch):
        assert self._recorded_delays(monkeypatch, seed=1) != \
            self._recorded_delays(monkeypatch, seed=2)
