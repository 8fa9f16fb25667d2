"""Tests for the asynchronous network simulator and delay models."""

import numpy as np
import pytest

from repro.faults import FaultController, FaultSchedule
from repro.network import (
    ConstantDelay,
    ExponentialDelay,
    HeterogeneousDelay,
    LogNormalDelay,
    Message,
    MessageKind,
    NetworkSimulator,
    PartitionDelay,
    UniformDelay,
)


class TestDelayModels:
    def test_constant_delay_includes_bandwidth_term(self):
        model = ConstantDelay(delay=0.01, bandwidth_bytes_per_second=1e6)
        rng = np.random.default_rng(0)
        assert model.sample(rng, "a", "b", size_bytes=1_000_000) == pytest.approx(1.01)

    def test_uniform_delay_within_bounds(self):
        model = UniformDelay(low=0.001, high=0.002, bandwidth_bytes_per_second=1e12)
        rng = np.random.default_rng(0)
        samples = [model.latency(rng, "a", "b") for _ in range(200)]
        assert min(samples) >= 0.001
        assert max(samples) <= 0.002

    def test_exponential_delay_positive_with_minimum(self):
        model = ExponentialDelay(mean=0.001, minimum=0.0005)
        rng = np.random.default_rng(0)
        assert all(model.latency(rng, "a", "b") >= 0.0005 for _ in range(100))

    def test_lognormal_delay_has_heavy_tail(self):
        model = LogNormalDelay(median=0.001, sigma=1.0)
        rng = np.random.default_rng(0)
        samples = np.array([model.latency(rng, "a", "b") for _ in range(2000)])
        assert samples.max() > 5 * np.median(samples)

    def test_heterogeneous_delay_slows_down_straggler(self):
        base = ConstantDelay(delay=0.001)
        model = HeterogeneousDelay(base, node_factors={"slow": 10.0})
        rng = np.random.default_rng(0)
        assert model.latency(rng, "slow", "b") == pytest.approx(0.01)
        assert model.latency(rng, "a", "b") == pytest.approx(0.001)

    def test_partition_delay_penalises_cross_partition_messages(self):
        base = ConstantDelay(delay=0.001)
        model = PartitionDelay(base, partitioned_nodes={"a"}, period=1.0,
                               partition_duration=0.5, partition_penalty=1.0)
        rng = np.random.default_rng(0)
        model.set_clock(0.1)  # inside the partition window
        assert model.latency(rng, "a", "b") == pytest.approx(1.001)
        model.set_clock(0.7)  # outside the window
        assert model.latency(rng, "a", "b") == pytest.approx(0.001)

    def test_invalid_configurations(self):
        with pytest.raises(ValueError):
            ConstantDelay(delay=-1.0)
        with pytest.raises(ValueError):
            UniformDelay(low=2.0, high=1.0)
        with pytest.raises(ValueError):
            ExponentialDelay(mean=0.0)
        with pytest.raises(ValueError):
            LogNormalDelay(median=0.0)


class TestDelayModelStatistics:
    """Statistical sanity: the sampled distributions match their parameters."""

    NUM_SAMPLES = 20_000

    def _samples(self, model, seed=0):
        rng = np.random.default_rng(seed)
        return np.array([model.latency(rng, "a", "b")
                         for _ in range(self.NUM_SAMPLES)])

    def test_exponential_mean_within_tolerance(self):
        model = ExponentialDelay(mean=2e-3, minimum=5e-4)
        samples = self._samples(model)
        # E[minimum + Exp(mean)] = minimum + mean; CLT tolerance ~ 3σ/√N.
        expected = 5e-4 + 2e-3
        assert samples.mean() == pytest.approx(expected, rel=0.05)
        assert samples.min() >= 5e-4

    def test_exponential_std_matches_mean_parameter(self):
        model = ExponentialDelay(mean=2e-3, minimum=0.0)
        samples = self._samples(model)
        assert samples.std() == pytest.approx(2e-3, rel=0.1)

    def test_lognormal_median_and_mean_within_tolerance(self):
        model = LogNormalDelay(median=1e-3, sigma=0.5)
        samples = self._samples(model)
        assert np.median(samples) == pytest.approx(1e-3, rel=0.05)
        # E[LogNormal(ln m, σ)] = m · exp(σ²/2)
        assert samples.mean() == pytest.approx(1e-3 * np.exp(0.125), rel=0.05)

    @pytest.mark.parametrize("model", [
        ConstantDelay(delay=1e-3, bandwidth_bytes_per_second=1e6),
        ExponentialDelay(mean=1e-3, bandwidth_bytes_per_second=1e6),
        LogNormalDelay(median=1e-3, bandwidth_bytes_per_second=1e6),
    ])
    def test_bandwidth_term_is_additive(self, model):
        """sample() == latency() + size/bandwidth for identical rng states."""
        size = 500_000  # 0.5 s transfer at 1 MB/s
        latency = model.latency(np.random.default_rng(7), "a", "b")
        total = model.sample(np.random.default_rng(7), "a", "b", size)
        assert total == pytest.approx(latency + size / 1e6)


class TestMessage:
    def test_size_accounts_for_payload(self):
        message = Message("a", "b", MessageKind.MODEL_TO_WORKER, 0, np.zeros(1000))
        assert message.size_bytes == 64 + 4000

    def test_silent_message_small(self):
        message = Message("a", "b", MessageKind.MODEL_TO_WORKER, 0, None)
        assert message.size_bytes == 64

    def test_ordering_by_delivery_time(self):
        early = Message("a", "b", MessageKind.MODEL_TO_WORKER, 0, np.zeros(1),
                        deliver_time=1.0)
        late = Message("a", "b", MessageKind.MODEL_TO_WORKER, 0, np.zeros(1),
                       deliver_time=2.0)
        assert early < late


class TestNetworkSimulator:
    def _sim(self, **kwargs):
        return NetworkSimulator(delay_model=ConstantDelay(delay=0.01,
                                                          bandwidth_bytes_per_second=1e12),
                                seed=0, **kwargs)

    def test_send_schedules_delivery(self):
        sim = self._sim()
        message = sim.send("a", "b", MessageKind.MODEL_TO_WORKER, 0, np.ones(3),
                           send_time=1.0)
        assert message.deliver_time == pytest.approx(1.01)
        assert sim.pending_count("b") == 1

    def test_silent_payload_never_enters_network(self):
        sim = self._sim()
        assert sim.send("a", "b", MessageKind.MODEL_TO_WORKER, 0, None, 0.0) is None
        assert sim.stats.messages_sent == 0

    def test_collect_quorum_returns_first_q_by_delivery(self):
        sim = self._sim()
        for index, sender in enumerate(["s0", "s1", "s2", "s3"]):
            sim.send(sender, "w", MessageKind.MODEL_TO_WORKER, 0,
                     np.full(2, float(index)), send_time=float(index))
        record = sim.collect_quorum("w", MessageKind.MODEL_TO_WORKER, 0, quorum=2)
        assert record.senders == ["s0", "s1"]
        assert record.completion_time == pytest.approx(1.01)

    def test_collect_quorum_respects_not_before(self):
        sim = self._sim()
        sim.send("s0", "w", MessageKind.MODEL_TO_WORKER, 0, np.zeros(1), send_time=0.0)
        record = sim.collect_quorum("w", MessageKind.MODEL_TO_WORKER, 0, quorum=1,
                                    not_before=5.0)
        assert record.completion_time == pytest.approx(5.0)

    def test_collect_quorum_deduplicates_senders(self):
        sim = self._sim()
        sim.send("s0", "w", MessageKind.MODEL_TO_WORKER, 0, np.zeros(1), 0.0)
        sim.send("s0", "w", MessageKind.MODEL_TO_WORKER, 0, np.ones(1), 0.0)
        sim.send("s1", "w", MessageKind.MODEL_TO_WORKER, 0, np.ones(1), 0.5)
        record = sim.collect_quorum("w", MessageKind.MODEL_TO_WORKER, 0, quorum=2)
        assert sorted(record.senders) == ["s0", "s1"]

    def test_collect_quorum_insufficient_senders_raises(self):
        sim = self._sim()
        sim.send("s0", "w", MessageKind.MODEL_TO_WORKER, 0, np.zeros(1), 0.0)
        with pytest.raises(RuntimeError):
            sim.collect_quorum("w", MessageKind.MODEL_TO_WORKER, 0, quorum=2)

    def test_collect_quorum_filters_kind_and_step(self):
        sim = self._sim()
        sim.send("s0", "w", MessageKind.MODEL_TO_WORKER, 0, np.zeros(1), 0.0)
        sim.send("s1", "w", MessageKind.GRADIENT_TO_SERVER, 0, np.zeros(1), 0.0)
        sim.send("s2", "w", MessageKind.MODEL_TO_WORKER, 1, np.zeros(1), 0.0)
        record = sim.collect_quorum("w", MessageKind.MODEL_TO_WORKER, 0, quorum=1)
        assert record.senders == ["s0"]

    def test_late_messages_discarded_after_collection(self):
        sim = self._sim()
        sim.send("s0", "w", MessageKind.MODEL_TO_WORKER, 0, np.zeros(1), 0.0)
        sim.send("s1", "w", MessageKind.MODEL_TO_WORKER, 0, np.zeros(1), 10.0)
        sim.collect_quorum("w", MessageKind.MODEL_TO_WORKER, 0, quorum=1)
        with pytest.raises(RuntimeError):
            sim.collect_quorum("w", MessageKind.MODEL_TO_WORKER, 0, quorum=1)

    def test_late_discard_only_touches_collected_kind_and_step(self):
        """The discard rule (paper Fig. 2) empties exactly one (kind, step)
        bucket: slower senders of that step are gone, other steps and kinds
        stay buffered."""
        sim = self._sim()
        for index, sender in enumerate(["s0", "s1", "s2"]):
            sim.send(sender, "w", MessageKind.MODEL_TO_WORKER, 0,
                     np.zeros(1), send_time=float(index))
        sim.send("s0", "w", MessageKind.MODEL_TO_WORKER, 1, np.zeros(1), 0.0)
        sim.send("s0", "w", MessageKind.GRADIENT_TO_SERVER, 0, np.zeros(1), 0.0)

        record = sim.collect_quorum("w", MessageKind.MODEL_TO_WORKER, 0,
                                    quorum=2)
        assert record.senders == ["s0", "s1"]   # s2 arrived too late
        # s2's message was discarded with the bucket ...
        assert sim.pending_count("w") == 2
        # ... while step 1 and the other kind are still collectable.
        assert sim.collect_quorum("w", MessageKind.MODEL_TO_WORKER, 1,
                                  quorum=1).senders == ["s0"]
        assert sim.collect_quorum("w", MessageKind.GRADIENT_TO_SERVER, 0,
                                  quorum=1).senders == ["s0"]

    def test_delay_override_for_byzantine_fast_channel(self):
        sim = self._sim()
        message = sim.send("byz", "w", MessageKind.MODEL_TO_WORKER, 0, np.zeros(1),
                           send_time=3.0, delay_override=0.0)
        assert message.deliver_time == pytest.approx(3.0)

    def test_drop_probability_loses_messages(self):
        sim = NetworkSimulator(
            delay_model=ConstantDelay(0.001), seed=0,
            fault_controller=FaultController(FaultSchedule(drop_rate=0.5)))
        for index in range(100):
            sim.send(f"s{index}", "w", MessageKind.MODEL_TO_WORKER, 0,
                     np.zeros(1), 0.0)
        assert 20 < sim.stats.messages_dropped < 80
        assert sim.pending_count("w") == 100 - sim.stats.messages_dropped

    def test_duplicates_counted_once_towards_quorum(self):
        sim = NetworkSimulator(
            delay_model=ConstantDelay(0.001), seed=0,
            fault_controller=FaultController(
                FaultSchedule(duplicate_rate=0.9)))
        sim.send("s0", "w", MessageKind.MODEL_TO_WORKER, 0, np.zeros(1), 0.0)
        with pytest.raises(RuntimeError):
            sim.collect_quorum("w", MessageKind.MODEL_TO_WORKER, 0, quorum=2)

    def test_purge_step_clears_buffers(self):
        sim = self._sim()
        sim.send("s0", "w", MessageKind.MODEL_TO_WORKER, 0, np.zeros(1), 0.0)
        sim.send("s0", "w", MessageKind.MODEL_TO_WORKER, 1, np.zeros(1), 0.0)
        removed = sim.purge_step(0)
        assert removed == 1
        assert sim.pending_count("w") == 1

    def test_stats_track_bytes_and_mean_delay(self):
        sim = self._sim()
        sim.send("s0", "w", MessageKind.MODEL_TO_WORKER, 0, np.zeros(100), 0.0)
        assert sim.stats.bytes_sent == 64 + 400
        assert sim.stats.mean_delay > 0.0

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError, match=r"drop_rate must be in \[0, 1\)"):
            FaultController(FaultSchedule(drop_rate=1.0))
        with pytest.raises(ValueError,
                           match=r"duplicate_rate must be in \[0, 1\)"):
            FaultController(FaultSchedule(duplicate_rate=-0.1))

    def test_broadcast_reaches_every_recipient(self):
        sim = self._sim()
        sim.broadcast("s0", ["w0", "w1", "w2"], MessageKind.MODEL_TO_WORKER, 0,
                      np.zeros(1), 0.0)
        assert all(sim.pending_count(w) == 1 for w in ["w0", "w1", "w2"])
