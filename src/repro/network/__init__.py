"""Asynchronous network simulation.

The original GuanYu deployment runs over gRPC on a Grid5000 cluster; the
algorithmically relevant properties of that network are (a) unbounded,
variable message delays and (b) the resulting "first q received" delivery
order at each node.  This package provides a seeded, discrete-event message
simulator reproducing exactly those properties, with pluggable delay models
(constant, uniform, exponential, log-normal) and controller-backed fault
injection — message loss/duplication plus the timed crashes, partitions,
slowdowns and delay spikes of :mod:`repro.faults`.
"""

from repro.network.message import Message, MessageKind
from repro.network.delays import (
    ConstantDelay,
    DelayModel,
    ExponentialDelay,
    LogNormalDelay,
    UniformDelay,
)
from repro.network.simulator import DeliveryRecord, NetworkSimulator, NetworkStats

__all__ = [
    "Message",
    "MessageKind",
    "DelayModel",
    "ConstantDelay",
    "UniformDelay",
    "ExponentialDelay",
    "LogNormalDelay",
    "NetworkSimulator",
    "NetworkStats",
    "DeliveryRecord",
]
