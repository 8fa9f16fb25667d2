"""Message delay models.

A delay model maps ``(sender, recipient, size_bytes)`` to a latency sample in
seconds.  All models add a bandwidth term ``size / bandwidth`` on top of
their latency distribution so that exchanging a 1.75 M-parameter model is
visibly more expensive than exchanging a small control message — this is
what produces the communication-bound overheads reported in the paper's
Figure 3(b)/(d).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np


class DelayModel:
    """Base delay model.

    Parameters
    ----------
    bandwidth_bytes_per_second:
        Link bandwidth used for the serialisation/transfer term.  The default
        corresponds to the paper's 10 Gbps Ethernet (1.25e9 bytes/s).
    """

    #: True when :meth:`latency` ignores both ``sender`` and ``recipient``,
    #: i.e. every link draws from one shared distribution.  The batched
    #: runtime draws every phase's honest latencies, faults or not, as one
    #: ``sample_batch`` call per lane (the concatenated stream is
    #: bit-identical to consecutive per-send calls on the same generator),
    #: and raises ``BatchingUnsupported`` for a model that sets this False
    #: (per-node factors, partitions), which the simulator runs instead.
    #: Every model a ``ScenarioSpec`` can name is link-independent.
    latency_is_link_independent = True

    def __init__(self, bandwidth_bytes_per_second: float = 1.25e9) -> None:
        if bandwidth_bytes_per_second <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth = bandwidth_bytes_per_second

    def latency(self, rng: np.random.Generator, sender: str, recipient: str) -> float:
        """Sample the pure latency component (seconds)."""
        raise NotImplementedError

    def latency_batch(self, rng: np.random.Generator, sender: str,
                      recipient: Optional[str], count: int) -> np.ndarray:
        """Sample ``count`` consecutive latencies from one generator.

        Must be **bit-identical** to ``count`` successive :meth:`latency`
        calls on the same generator — the batched runtime relies on this to
        reproduce the sequential simulator's delay stream exactly.  The
        default literally loops; subclasses override with the equivalent
        vectorised draw (NumPy ``Generator`` fills vectorised requests from
        the same bit stream as repeated scalar draws).
        """
        return np.array([self.latency(rng, sender, recipient)
                         for _ in range(count)], dtype=np.float64)

    def sample(self, rng: np.random.Generator, sender: str, recipient: str,
               size_bytes: int) -> float:
        """Sample the total delay for a message of ``size_bytes``."""
        transfer = size_bytes / self.bandwidth
        delay = self.latency(rng, sender, recipient) + transfer
        return max(delay, 0.0)

    def sample_batch(self, rng: np.random.Generator, sender: str,
                     recipient: Optional[str], size_bytes: int,
                     count: int) -> np.ndarray:
        """``count`` consecutive :meth:`sample` draws as one array."""
        if count == 0:
            return np.zeros(0)
        transfer = size_bytes / self.bandwidth
        return np.maximum(
            self.latency_batch(rng, sender, recipient, count) + transfer, 0.0)


class ConstantDelay(DelayModel):
    """Fixed latency on every link (useful for deterministic tests)."""

    def __init__(self, delay: float = 1e-3, **kwargs) -> None:
        super().__init__(**kwargs)
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.delay = delay

    def latency(self, rng, sender, recipient) -> float:
        return self.delay

    def latency_batch(self, rng, sender, recipient, count) -> np.ndarray:
        return np.full(count, self.delay, dtype=np.float64)


class UniformDelay(DelayModel):
    """Latency sampled uniformly from ``[low, high]``."""

    def __init__(self, low: float = 0.5e-3, high: float = 2e-3, **kwargs) -> None:
        super().__init__(**kwargs)
        if not 0 <= low <= high:
            raise ValueError("expected 0 <= low <= high")
        self.low = low
        self.high = high

    def latency(self, rng, sender, recipient) -> float:
        return float(rng.uniform(self.low, self.high))

    def latency_batch(self, rng, sender, recipient, count) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=count)


class ExponentialDelay(DelayModel):
    """Exponentially distributed latency (heavy-ish tail, memoryless)."""

    def __init__(self, mean: float = 1e-3, minimum: float = 1e-4, **kwargs) -> None:
        super().__init__(**kwargs)
        if mean <= 0 or minimum < 0:
            raise ValueError("mean must be positive and minimum non-negative")
        self.mean = mean
        self.minimum = minimum

    def latency(self, rng, sender, recipient) -> float:
        return self.minimum + float(rng.exponential(self.mean))

    def latency_batch(self, rng, sender, recipient, count) -> np.ndarray:
        return self.minimum + rng.exponential(self.mean, size=count)


class LogNormalDelay(DelayModel):
    """Log-normal latency — the classic datacentre tail-latency model."""

    def __init__(self, median: float = 1e-3, sigma: float = 0.5, **kwargs) -> None:
        super().__init__(**kwargs)
        if median <= 0 or sigma <= 0:
            raise ValueError("median and sigma must be positive")
        self.median = median
        self.sigma = sigma

    def latency(self, rng, sender, recipient) -> float:
        return float(rng.lognormal(np.log(self.median), self.sigma))

    def latency_batch(self, rng, sender, recipient, count) -> np.ndarray:
        return rng.lognormal(np.log(self.median), self.sigma, size=count)


class HeterogeneousDelay(DelayModel):
    """Wrap a base model with per-node slowdown factors.

    Useful to model stragglers: a node with factor 5.0 sees all of its links
    five times slower.  Asynchrony means GuanYu must keep working despite
    such nodes — the quorums simply exclude them.
    """

    latency_is_link_independent = False

    def __init__(self, base: DelayModel,
                 node_factors: Optional[Dict[str, float]] = None, **kwargs) -> None:
        super().__init__(bandwidth_bytes_per_second=base.bandwidth, **kwargs)
        self.base = base
        self.node_factors = dict(node_factors or {})

    def latency(self, rng, sender, recipient) -> float:
        factor = self.node_factors.get(sender, 1.0) * self.node_factors.get(recipient, 1.0)
        return factor * self.base.latency(rng, sender, recipient)


class PartitionDelay(DelayModel):
    """Simulate transient network congestion / partial partitions.

    During recurring windows of ``partition_duration`` seconds (every
    ``period`` seconds), messages crossing the partitioned set of nodes incur
    an extra ``partition_penalty`` delay — modelling the adversary's ability
    to congest parts of the network for short periods (paper Section 2,
    discussion of timing assumptions).
    """

    latency_is_link_independent = False

    def __init__(self, base: DelayModel, partitioned_nodes: Iterable[str],
                 period: float = 1.0, partition_duration: float = 0.2,
                 partition_penalty: float = 0.5, **kwargs) -> None:
        super().__init__(bandwidth_bytes_per_second=base.bandwidth, **kwargs)
        self.base = base
        self.partitioned_nodes = set(partitioned_nodes)
        self.period = period
        self.partition_duration = partition_duration
        self.partition_penalty = partition_penalty
        self._clock = 0.0

    def set_clock(self, now: float) -> None:
        """Update the wall-clock used to decide whether a partition is active."""
        self._clock = now

    def latency(self, rng, sender, recipient) -> float:
        delay = self.base.latency(rng, sender, recipient)
        crosses = (sender in self.partitioned_nodes) != (recipient in self.partitioned_nodes)
        in_window = (self._clock % self.period) < self.partition_duration
        if crosses and in_window:
            delay += self.partition_penalty
        return delay
