"""Fault controller: interprets a :class:`FaultSchedule` for a runtime.

The controller is the single decision point both runtimes consult:

* :meth:`on_send` — called once per message; decides whether the message is
  delivered (crash / partition / probabilistic drop), how much extra delay
  it suffers (slowdown factor, delay spikes) and whether it is duplicated;
* :meth:`node_alive` — whether a node participates at a given step (the
  trainers skip the local computation of crashed nodes).

Design notes
------------
The controller is **stateless over steps**: every query is a pure function
of ``(schedule, step)``.  This makes it safe to share between the threads
of the threaded runtime, where different nodes sit at *different* steps at
the same wall-clock instant — each message carries its own step and is
judged against the schedule at that step.

Every fault takes or loses effect at an event step, so the deterministic
decisions are constant between two consecutive event steps — an *epoch*.
Construction snapshots what is in force in each epoch (crashed nodes,
partitions, link overrides, silenced attacks); a link's verdict — crash or
partition block, delay factor, extra delay, drop rate — is compiled on
first use once per epoch (:meth:`link_state`, :meth:`link_table`), and so
is the participation fixpoint.  The caches hold at most one entry per
(query, epoch), however long the run.  A compiled :class:`LinkTable`
depends on the schedule alone, so controllers of equal schedules — the
cells of one campaign — share one through a bounded process-level cache
(:data:`SHARED_TABLES`); stats and drop sampling stay per controller.

Probabilistic decisions (drop / duplicate rates) are sampled by hashing
``(seed, sender, recipient, kind, step)`` rather than by drawing from a
shared generator, so the outcome for any given message is independent of
thread interleaving: the same schedule and seed give the same drops under
both runtimes, every run.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.adversary.base import AttackContext, ServerAttack, WorkerAttack
from repro.faults.schedule import (
    LINK_OVERRIDE_KINDS,
    FaultEvent,
    FaultSchedule,
)

#: compiled link tables the process keeps for controllers of equal
#: schedules, least recently used first evicted
SHARED_TABLES = 256

_shared_tables: "OrderedDict[tuple, LinkTable]" = OrderedDict()
_shared_lock = threading.Lock()


@dataclass
class SendDecision:
    """Outcome of :meth:`FaultController.on_send` for one message."""

    deliver: bool = True
    #: ``None`` when delivered; ``"crash" | "partition" | "drop"`` otherwise
    blocked_by: Optional[str] = None
    delay_factor: float = 1.0
    extra_delay: float = 0.0
    duplicate: bool = False

    def apply_to_delay(self, delay: float) -> float:
        """The faulted delay for a message whose base delay is ``delay``."""
        return max(delay, 0.0) * self.delay_factor + self.extra_delay


class LinkState(NamedTuple):
    """The deterministic part of :meth:`FaultController.on_send` for one
    link in one epoch: ``blocked_by`` is ``"crash"``, ``"partition"`` or
    ``None``; a blocked link carries neutral effects."""

    blocked_by: Optional[str]
    delay_factor: float
    extra_delay: float
    drop_rate: float


class LinkTable(NamedTuple):
    """:class:`LinkState` over ``senders × recipients`` as
    ``(len(senders), len(recipients))`` arrays (read-only, shared)."""

    deliver: np.ndarray
    delay_factor: np.ndarray
    extra_delay: np.ndarray
    drop_rate: np.ndarray


class _Epoch(NamedTuple):
    """What is in force between two consecutive event steps."""

    crashed: FrozenSet[str]
    #: one ``node → group index`` map per active partition
    partitions: Tuple[Dict[str, int], ...]
    #: active link overrides, in schedule order
    overrides: Tuple[FaultEvent, ...]
    #: gated nodes whose attack is switched off
    honest: FrozenSet[str]

    def blocks(self, sender: str, recipient: str) -> bool:
        for groups in self.partitions:
            sender_group = groups.get(sender)
            recipient_group = groups.get(recipient)
            if (sender_group is not None and recipient_group is not None
                    and sender_group != recipient_group):
                return True
        return False

    def effects(self, sender: str, recipient: str,
                drop_rate: float) -> Tuple[float, float, float]:
        factor, extra = 1.0, 0.0
        keep = 1.0 - drop_rate
        for event in self.overrides:
            if not event.matches_link(sender, recipient):
                continue
            if event.kind == "slowdown":
                factor *= event.factor
            elif event.kind == "delay_spike":
                extra += event.extra_delay
            elif event.kind == "drop_rate":
                keep *= 1.0 - event.rate
        return factor, extra, 1.0 - keep

    def link(self, sender: str, recipient: str,
             drop_rate: float) -> LinkState:
        if sender in self.crashed or recipient in self.crashed:
            return LinkState("crash", 1.0, 0.0, 0.0)
        if self.blocks(sender, recipient):
            return LinkState("partition", 1.0, 0.0, 0.0)
        return LinkState(None, *self.effects(sender, recipient, drop_rate))


class FaultController:
    """Interpret a :class:`FaultSchedule`; see the module docstring.

    Parameters
    ----------
    schedule:
        The declarative fault plan.  ``None`` is accepted and yields a
        controller that never interferes (every hook is a fast no-op).
    seed:
        Seed of the hash-based probabilistic sampling (drops/duplicates).
    """

    def __init__(self, schedule: Optional[FaultSchedule] = None,
                 seed: int = 0) -> None:
        self.schedule = schedule if schedule is not None else FaultSchedule()
        self.schedule.validate()
        self.seed = int(seed)
        self._lock = threading.Lock()
        self.stats: Dict[str, int] = {
            "blocked_crash": 0, "blocked_partition": 0,
            "dropped": 0, "duplicated": 0, "delayed": 0,
        }
        # Per-epoch caches (see the module docstring).  A racing miss
        # computes the same pure answer twice, so they take no lock.
        self._participation_cache: Dict[tuple, Tuple[List[str], List[str]]] = {}
        self._links: Dict[Tuple[str, str, int], LinkState] = {}
        self._tables: Dict[tuple, LinkTable] = {}
        #: canonical JSON of the schedule: the shared tables' key
        self._schedule_key = json.dumps(self.schedule.to_dict(),
                                        sort_keys=True)
        self._events_by_step: Dict[int, List[FaultEvent]] = {}
        self._compile()

    # ------------------------------------------------------------------ #
    # Schedule compilation: events -> epochs
    # ------------------------------------------------------------------ #
    def _compile(self) -> None:
        """Replay the schedule once, snapshotting what is in force after
        each event step: epoch k >= 1 starts at the k-th distinct event
        step, epoch 0 is the stretch before the first one.

        A ``recover`` ends its node's crash; ``heal``/``clear`` end the
        latest window opened under their label, or every labelled one when
        the label is empty (an empty ``clear`` also ends every unlabelled
        override).  A gated node starts honest when its first gating event
        is ``activate_attack``.
        """
        events = self.schedule.sorted_events()
        first_toggles: Dict[str, str] = {}
        for event in events:
            if event.kind in ("activate_attack", "deactivate_attack"):
                for node in event.nodes:
                    first_toggles.setdefault(node, event.kind)
        self._gated = frozenset(first_toggles)
        honest = {node for node, kind in first_toggles.items()
                  if kind == "activate_attack"}
        crashed: set = set()
        # open windows by event index (schedule order), and by label
        partitions: Dict[int, Dict[str, int]] = {}
        overrides: Dict[int, FaultEvent] = {}
        open_partitions: Dict[str, int] = {}
        open_overrides: Dict[str, int] = {}
        anonymous: List[int] = []

        def snapshot() -> _Epoch:
            return _Epoch(frozenset(crashed), tuple(partitions.values()),
                          tuple(overrides.values()), frozenset(honest))

        self._epochs = [snapshot()]
        for index, event in enumerate(events):
            self._events_by_step.setdefault(event.step, []).append(event)
            if event.kind == "crash":
                crashed.update(event.nodes)
            elif event.kind == "recover":
                crashed.difference_update(event.nodes)
            elif event.kind == "partition":
                partitions[index] = {node: group_index for group_index, group
                                     in enumerate(event.groups)
                                     for node in group}
                open_partitions[event.label] = index
            elif event.kind == "heal":
                for label in ([event.label] if event.label
                              else list(open_partitions)):
                    partitions.pop(open_partitions.pop(label, None), None)
            elif event.kind in LINK_OVERRIDE_KINDS:
                overrides[index] = event
                if event.label:
                    open_overrides[event.label] = index
                else:
                    anonymous.append(index)
            elif event.kind == "clear":
                if event.label:
                    closing = [open_overrides.pop(event.label, None)]
                else:
                    closing = [*open_overrides.values(), *anonymous]
                    open_overrides.clear()
                    anonymous.clear()
                for opened in closing:
                    overrides.pop(opened, None)
            elif event.kind == "activate_attack":
                honest.difference_update(event.nodes)
            elif event.kind == "deactivate_attack":
                honest.update(event.nodes)
            if index + 1 == len(events) or events[index + 1].step != event.step:
                self._epochs.append(snapshot())
        self._epoch_starts = sorted(self._events_by_step)

    def _at(self, step: int) -> _Epoch:
        return self._epochs[self.epoch(step)]

    # ------------------------------------------------------------------ #
    # Hook API
    # ------------------------------------------------------------------ #
    def epoch(self, step: int) -> int:
        """Index of the epoch holding ``step``: the number of distinct
        event steps at or before it.  Every deterministic decision is the
        same at two steps of one epoch."""
        return bisect.bisect_right(self._epoch_starts, step)

    def node_alive(self, node_id: str, step: int) -> bool:
        """Whether ``node_id`` participates in the protocol at ``step``."""
        return node_id not in self._at(step).crashed

    def attack_active(self, node_id: str, step: int) -> bool:
        """Whether the attack installed on ``node_id`` is live at ``step``.

        Nodes with no gating events are always active; gated nodes start
        honest when their first gating event is ``activate_attack``.
        """
        return node_id not in self._at(step).honest

    def link_blocked(self, sender: str, recipient: str, step: int) -> bool:
        """Whether an active partition separates ``sender`` and ``recipient``."""
        return self._at(step).blocks(sender, recipient)

    def link_state(self, sender: str, recipient: str,
                   step: int) -> LinkState:
        """The deterministic verdict on link ``sender → recipient`` at
        ``step``, compiled once per epoch."""
        epoch = self.epoch(step)
        key = (sender, recipient, epoch)
        state = self._links.get(key)
        if state is None:
            state = self._links[key] = self._epochs[epoch].link(
                sender, recipient, self.schedule.drop_rate)
        return state

    def link_table(self, senders: Sequence[str], recipients: Sequence[str],
                   step: int) -> LinkTable:
        """:meth:`link_state` of every ``senders × recipients`` link at
        ``step`` as arrays, compiled once per epoch and schedule — what a
        vectorised runtime judges a whole phase with."""
        epoch = self.epoch(step)
        key = (tuple(senders), tuple(recipients), epoch)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = _shared_table(
                (self._schedule_key,) + key,
                lambda: self._compile_table(senders, recipients, epoch))
        return table

    def _compile_table(self, senders: Sequence[str],
                       recipients: Sequence[str], epoch: int) -> LinkTable:
        now, drop_rate = self._epochs[epoch], self.schedule.drop_rate
        states = [now.link(sender, recipient, drop_rate)
                  for sender in senders for recipient in recipients]
        shape = (len(senders), len(recipients))
        effects = np.array([state[1:] for state in states],
                           dtype=float).reshape(shape + (3,))
        table = LinkTable(
            np.array([state.blocked_by is None for state in states],
                     dtype=bool).reshape(shape),
            *np.moveaxis(effects, -1, 0))
        for array in table:
            array.flags.writeable = False
        return table

    def dropped(self, sender: str, recipient: str, kind: str, step: int,
                drop_rate: float) -> bool:
        """The hash-sampled loss of one message on a link of ``drop_rate``."""
        return drop_rate > 0 and self._uniform(
            "drop", sender, recipient, kind, step) < drop_rate

    def on_send(self, sender: str, recipient: str, kind: str,
                step: int) -> SendDecision:
        """Judge one message; see :class:`SendDecision`."""
        blocked_by, factor, extra, drop_rate = self.link_state(
            sender, recipient, step)
        if blocked_by is not None:
            self._count(f"blocked_{blocked_by}")
            return SendDecision(deliver=False, blocked_by=blocked_by)
        if self.dropped(sender, recipient, kind, step, drop_rate):
            self._count("dropped")
            return SendDecision(deliver=False, blocked_by="drop")
        duplicate = (self.schedule.duplicate_rate > 0
                     and self._uniform("dup", sender, recipient, kind, step)
                     < self.schedule.duplicate_rate)
        if duplicate:
            self._count("duplicated")
        if factor != 1.0 or extra != 0.0:
            self._count("delayed")
        return SendDecision(deliver=True, delay_factor=factor,
                            extra_delay=extra, duplicate=duplicate)

    # ------------------------------------------------------------------ #
    def reachable_senders(self, recipient: str, senders: Sequence[str],
                          step: int) -> List[str]:
        """Senders that are alive and not partitioned away from ``recipient``."""
        now = self._at(step)
        return [sender for sender in senders
                if sender not in now.crashed
                and not now.blocks(sender, recipient)]

    def participating_nodes(self, worker_ids: Sequence[str],
                            server_ids: Sequence[str], model_quorum: int,
                            gradient_quorum: int,
                            step: int) -> Tuple[List[str], List[str]]:
        """The nodes that can complete protocol step ``step`` under faults.

        A node left short of a quorum *stalls* for the step (state frozen,
        no sends) instead of waiting for messages that active faults — or
        other stalled nodes — guarantee will never arrive.  Stalling is
        transitive, so participation is the greatest fixpoint of: a node
        participates iff, for every kind it receives
        (:data:`~repro.network.message.ROUTES`), at least that kind's
        quorum (:meth:`~repro.network.message.Route.quorum`) of
        participating senders can reach it.  A worker so needs
        ``model_quorum`` servers (phase 1); a server needs
        ``gradient_quorum`` workers (phase 2) **and** ``model_quorum``
        servers, itself included (phase 3).

        Both runtimes consult this same function — it is a pure function
        of ``(schedule, step)``, so every thread computes the same sets and
        a stalled node is never waited on.  Computed once per epoch.
        Returns ``(participating_workers, participating_servers)``.
        """
        key = (tuple(worker_ids), tuple(server_ids), model_quorum,
               gradient_quorum, self.epoch(step))
        cached = self._participation_cache.get(key)
        if cached is not None:
            return cached
        from repro.network.message import ROUTES  # it imports this module

        alive = {role: [node for node in nodes if self.node_alive(node, step)]
                 for role, nodes in (("worker", worker_ids),
                                     ("server", server_ids))}
        while True:
            kept = {role: [node for node in nodes if all(
                len(self.reachable_senders(node, alive[route.senders], step))
                >= route.quorum(model_quorum, gradient_quorum)
                for route in ROUTES.values() if route.recipients == role)]
                for role, nodes in alive.items()}
            if kept == alive:
                break
            alive = kept
        result = self._participation_cache[key] = (alive["worker"],
                                                   alive["server"])
        return result

    def gate_attack(self, node_id: str, attack):
        """Wrap ``attack`` so it only fires while active for ``node_id``.

        Attacks without gating events are returned unchanged; ``None``
        passes through (the node is honest).
        """
        if attack is None or node_id not in self._gated:
            return attack
        if isinstance(attack, WorkerAttack):
            return GatedWorkerAttack(attack, self, node_id)
        if isinstance(attack, ServerAttack):
            return GatedServerAttack(attack, self, node_id)
        raise TypeError(f"cannot gate {type(attack).__name__}")

    # ------------------------------------------------------------------ #
    def _count(self, key: str) -> None:
        with self._lock:
            self.stats[key] += 1

    def _uniform(self, *parts) -> float:
        """Deterministic uniform sample in ``[0, 1)`` keyed by ``parts``."""
        material = "|".join([str(self.seed), *map(str, parts)])
        digest = hashlib.sha256(material.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2.0 ** 64


def _shared_table(key: tuple, compile_table) -> LinkTable:
    """The process's :class:`LinkTable` under ``key``, compiled by
    ``compile_table()`` on a miss; at most :data:`SHARED_TABLES` are kept.
    A racing miss compiles the same read-only table twice."""
    with _shared_lock:
        table = _shared_tables.get(key)
        if table is not None:
            _shared_tables.move_to_end(key)
            return table
    table = compile_table()
    with _shared_lock:
        _shared_tables[key] = table
        while len(_shared_tables) > SHARED_TABLES:
            _shared_tables.popitem(last=False)
    return table


class _GatedAttack:
    """What both gated seams share: the inner attack and its window."""

    def __init__(self, inner, controller: FaultController,
                 node_id: str) -> None:
        self.inner = inner
        self.controller = controller
        self.node_id = node_id
        self.name = inner.name

    def _active(self, step: int) -> bool:
        return self.controller.attack_active(self.node_id, step)


class GatedWorkerAttack(_GatedAttack, WorkerAttack):
    """A worker attack active only inside its scheduled window."""

    @property
    def poisons(self) -> bool:
        return self.inner.poisons

    def corrupt_gradient(self, context: AttackContext) -> Optional[np.ndarray]:
        if not self._active(context.step):
            return context.honest_value
        return self.inner.corrupt_gradient(context)

    def poison_batch(self, features, labels, context: AttackContext):
        if not self._active(context.step):
            return features, labels
        return self.inner.poison_batch(features, labels, context)


class GatedServerAttack(_GatedAttack, ServerAttack):
    """A server attack active only inside its scheduled window."""

    def corrupt_model(self, context: AttackContext) -> Optional[np.ndarray]:
        if not self._active(context.step):
            return context.honest_value
        return self.inner.corrupt_model(context)
