"""Computation cost model for the simulated clock.

The paper's Figure 3(b)/(d) (accuracy versus *time*) depends on three cost
components on top of the network delays:

1. gradient computation at the workers (dominated by the backward pass,
   roughly linear in batch size × parameter count);
2. robust aggregation at servers and workers (Multi-Krum is
   ``O(n² d)``, the coordinate-wise median ``O(n d log n)``);
3. the runtime overhead of leaving TensorFlow's dataflow graph: converting
   tensors to numpy arrays, protobuf serialisation and gRPC framing
   (Section 4 "a caveat is worth noting here").  This per-message overhead is
   what makes *vanilla GuanYu* ~65 % slower than vanilla TF even with zero
   Byzantine nodes; it is modelled by ``serialization_seconds_per_mb``.

The default :data:`GRID5000_LIKE` constants are calibrated so that the
*relative* overheads of the paper (≈65 % for the re-implementation, ≈30 %
more for Byzantine resilience) emerge from the simulation; absolute values
are not meaningful outside the authors' testbed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.network.message import MessageKind


@dataclass(frozen=True)
class CostModel:
    """Linear cost model for node-local computation (all times in seconds)."""

    #: seconds per (sample × million parameters) for one gradient computation
    gradient_seconds_per_sample_mparam: float = 2.0e-4
    #: fixed per-batch overhead of a gradient computation
    gradient_fixed_seconds: float = 5.0e-3
    #: seconds per (n² × million parameters) for Multi-Krum style rules
    krum_seconds_per_n2_mparam: float = 1.0e-4
    #: seconds per (n log n × million parameters) for median style rules
    median_seconds_per_nlogn_mparam: float = 5.0e-5
    #: seconds per million parameters for an SGD model update
    update_seconds_per_mparam: float = 1.0e-3
    #: serialisation / framework-context-switch overhead, per megabyte sent
    serialization_seconds_per_mb: float = 2.5e-3
    #: fixed per-message overhead (protobuf + gRPC call setup)
    per_message_overhead_seconds: float = 2.0e-4

    # ------------------------------------------------------------------ #
    def gradient_time(self, batch_size: int, num_parameters: int) -> float:
        """Time for one worker to compute a mini-batch gradient."""
        mparams = num_parameters / 1e6
        return self.gradient_fixed_seconds + (
            self.gradient_seconds_per_sample_mparam * batch_size * mparams
        )

    def krum_time(self, num_inputs: int, num_parameters: int) -> float:
        """Time for a Multi-Krum aggregation of ``num_inputs`` gradients."""
        mparams = num_parameters / 1e6
        return self.krum_seconds_per_n2_mparam * num_inputs ** 2 * mparams

    def median_time(self, num_inputs: int, num_parameters: int) -> float:
        """Time for a coordinate-wise median over ``num_inputs`` vectors."""
        mparams = num_parameters / 1e6
        return (self.median_seconds_per_nlogn_mparam
                * num_inputs * max(np.log2(max(num_inputs, 2)), 1.0) * mparams)

    def mean_time(self, num_inputs: int, num_parameters: int) -> float:
        """Time for a plain averaging aggregation (cheapest rule)."""
        mparams = num_parameters / 1e6
        return 0.2 * self.median_seconds_per_nlogn_mparam * num_inputs * mparams

    def aggregation_time(self, rule_name: str, num_inputs: int,
                         num_parameters: int) -> float:
        """Dispatch on the aggregation rule used."""
        if rule_name in ("multi_krum", "krum", "bulyan"):
            return self.krum_time(num_inputs, num_parameters)
        if rule_name in ("median", "marginal_median", "geometric_median",
                         "trimmed_mean"):
            return self.median_time(num_inputs, num_parameters)
        return self.mean_time(num_inputs, num_parameters)

    def update_time(self, num_parameters: int) -> float:
        """Time for a parameter server to apply one SGD update."""
        return self.update_seconds_per_mparam * num_parameters / 1e6

    def receive_time(self, kind: MessageKind, quorum: int,
                     num_parameters: int, gradient_rule: str,
                     samples=0):
        """Seconds a recipient of ``kind`` computes once its quorum is in:
        a worker takes the median of the models (free for the one model of
        a trusted server) and a gradient on ``samples`` samples, a server
        aggregates the gradients with ``gradient_rule`` and updates, or
        takes the median of the models.

        ``samples`` may be an array of per-worker counts; the result is
        then the array of their times, element for element the scalars."""
        if kind is MessageKind.MODEL_TO_WORKER:
            gradient = self.gradient_time(samples, num_parameters)
            return gradient if quorum == 1 \
                else self.median_time(quorum, num_parameters) + gradient
        if kind is MessageKind.GRADIENT_TO_SERVER:
            return (self.aggregation_time(gradient_rule, quorum,
                                          num_parameters)
                    + self.update_time(num_parameters))
        return self.median_time(quorum, num_parameters)

    def serialization_time(self, num_parameters: int) -> float:
        """Per-message tensor→numpy→protobuf serialisation overhead."""
        megabytes = 4.0 * num_parameters / 1e6
        return (self.per_message_overhead_seconds
                + self.serialization_seconds_per_mb * megabytes)


#: cost model loosely calibrated to the paper's Grid5000 CPU nodes
GRID5000_LIKE = CostModel()

#: zero-cost model (pure protocol-logic experiments, e.g. unit tests)
INSTANT = CostModel(
    gradient_seconds_per_sample_mparam=0.0,
    gradient_fixed_seconds=0.0,
    krum_seconds_per_n2_mparam=0.0,
    median_seconds_per_nlogn_mparam=0.0,
    update_seconds_per_mparam=0.0,
    serialization_seconds_per_mb=0.0,
    per_message_overhead_seconds=0.0,
)
