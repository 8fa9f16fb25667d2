"""Message delay models.

A delay model maps a message's ``size_bytes`` to a latency sample in
seconds; every link draws from one shared distribution.  All models add a
bandwidth term ``size / bandwidth`` on top of their latency distribution so
that exchanging a 1.75 M-parameter model is visibly more expensive than
exchanging a small control message — this is what produces the
communication-bound overheads reported in the paper's Figure 3(b)/(d).
"""

from __future__ import annotations

import numpy as np


class DelayModel:
    """Base delay model.

    Parameters
    ----------
    bandwidth_bytes_per_second:
        Link bandwidth used for the serialisation/transfer term.  The default
        corresponds to the paper's 10 Gbps Ethernet (1.25e9 bytes/s).
    """

    def __init__(self, bandwidth_bytes_per_second: float = 1.25e9) -> None:
        if bandwidth_bytes_per_second <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth = bandwidth_bytes_per_second

    def latency(self, rng: np.random.Generator) -> float:
        """Sample the pure latency component (seconds)."""
        raise NotImplementedError

    def latency_batch(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Sample ``count`` consecutive latencies from one generator.

        Must be **bit-identical** to ``count`` successive :meth:`latency`
        calls on the same generator — the batched runtime relies on this to
        reproduce the sequential simulator's delay stream exactly.  Each
        model implements it as the equivalent vectorised draw (NumPy
        ``Generator`` fills vectorised requests from the same bit stream as
        repeated scalar draws).
        """
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size_bytes: int) -> float:
        """Sample the total delay for a message of ``size_bytes``."""
        transfer = size_bytes / self.bandwidth
        delay = self.latency(rng) + transfer
        return max(delay, 0.0)

    def sample_batch(self, rng: np.random.Generator, size_bytes: int,
                     count: int) -> np.ndarray:
        """``count`` consecutive :meth:`sample` draws as one array."""
        if count == 0:
            return np.zeros(0)
        transfer = size_bytes / self.bandwidth
        return np.maximum(self.latency_batch(rng, count) + transfer, 0.0)


class ConstantDelay(DelayModel):
    """Fixed latency on every link (useful for deterministic tests)."""

    def __init__(self, delay: float = 1e-3, **kwargs) -> None:
        super().__init__(**kwargs)
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.delay = delay

    def latency(self, rng) -> float:
        return self.delay

    def latency_batch(self, rng, count) -> np.ndarray:
        return np.full(count, self.delay, dtype=np.float64)


class UniformDelay(DelayModel):
    """Latency sampled uniformly from ``[low, high]``."""

    def __init__(self, low: float = 0.5e-3, high: float = 2e-3, **kwargs) -> None:
        super().__init__(**kwargs)
        if not 0 <= low <= high:
            raise ValueError("expected 0 <= low <= high")
        self.low = low
        self.high = high

    def latency(self, rng) -> float:
        return float(rng.uniform(self.low, self.high))

    def latency_batch(self, rng, count) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=count)


class ExponentialDelay(DelayModel):
    """Exponentially distributed latency (heavy-ish tail, memoryless)."""

    def __init__(self, mean: float = 1e-3, minimum: float = 1e-4, **kwargs) -> None:
        super().__init__(**kwargs)
        if mean <= 0 or minimum < 0:
            raise ValueError("mean must be positive and minimum non-negative")
        self.mean = mean
        self.minimum = minimum

    def latency(self, rng) -> float:
        return self.minimum + float(rng.exponential(self.mean))

    def latency_batch(self, rng, count) -> np.ndarray:
        return self.minimum + rng.exponential(self.mean, size=count)


class LogNormalDelay(DelayModel):
    """Log-normal latency — the classic datacentre tail-latency model."""

    def __init__(self, median: float = 1e-3, sigma: float = 0.5, **kwargs) -> None:
        super().__init__(**kwargs)
        if median <= 0 or sigma <= 0:
            raise ValueError("median and sigma must be positive")
        self.median = median
        self.sigma = sigma

    def latency(self, rng) -> float:
        return float(rng.lognormal(np.log(self.median), self.sigma))

    def latency_batch(self, rng, count) -> np.ndarray:
        return rng.lognormal(np.log(self.median), self.sigma, size=count)
