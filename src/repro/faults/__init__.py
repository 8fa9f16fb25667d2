"""Declarative chaos injection for both runtimes.

The paper claims liveness and safety under full asynchrony with up to ``f``
Byzantine servers and ``f̄`` Byzantine workers; this package supplies the
*time-varying* half of that stress test.  A :class:`FaultSchedule` is a
JSON-serialisable list of timed :class:`FaultEvent` entries — node crashes
and recoveries, network partitions that heal, per-link delay spikes / drop
rates / straggler slowdowns, and step-gated activation of the registered
Byzantine attacks — interpreted by a :class:`FaultController` whose small
hook API (``on_send``, ``on_step``, ``node_alive``) is consulted by the
simulated :class:`~repro.network.simulator.NetworkSimulator` and the
real-time :class:`~repro.runtime.live.Endpoint` alike.

Schedules ride inside :class:`~repro.campaign.spec.ScenarioSpec` (field
``faults``), hash into the content address and sweep like any other axis;
``repro resilience`` runs the canned crash-vs-quorum and partition-heal
studies built on top.
"""

from repro.faults.schedule import (
    EVENT_KINDS,
    FaultEvent,
    FaultSchedule,
)
from repro.faults.controller import (
    FaultController,
    GatedServerAttack,
    GatedWorkerAttack,
    SendDecision,
)

__all__ = [
    "EVENT_KINDS",
    "FaultEvent",
    "FaultSchedule",
    "FaultController",
    "SendDecision",
    "GatedWorkerAttack",
    "GatedServerAttack",
]
