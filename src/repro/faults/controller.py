"""Fault controller: interprets a :class:`FaultSchedule` for a runtime.

The controller is the single decision point both runtimes consult:

* :meth:`on_send` — called once per message; decides whether the message is
  delivered (crash / partition / probabilistic drop), how much extra delay
  it suffers (slowdown factor, delay spikes) and whether it is duplicated;
* :meth:`node_alive` — whether a node participates at a given step (the
  trainers skip the local computation of crashed nodes);
* :meth:`on_step` — bookkeeping hook advancing the fault log; returns the
  events that fire at that step so runtimes can trace them.

Design notes
------------
The controller is **stateless over steps**: every query is a pure function
of ``(schedule, step)``, answered from interval tables precomputed at
construction.  This makes it safe to share between the threads of the
threaded runtime, where different nodes sit at *different* steps at the
same wall-clock instant — each message carries its own step and is judged
against the schedule at that step.

Probabilistic decisions (drop / duplicate rates) are sampled by hashing
``(seed, sender, recipient, kind, step)`` rather than by drawing from a
shared generator, so the outcome for any given message is independent of
thread interleaving: the same schedule and seed give the same drops under
both runtimes, every run.
"""

from __future__ import annotations

import hashlib
import math
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.adversary.base import AttackContext, ServerAttack, WorkerAttack
from repro.faults.schedule import (
    LINK_OVERRIDE_KINDS,
    FaultEvent,
    FaultSchedule,
)

_FOREVER = math.inf


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


@dataclass
class _Window:
    """A half-open step interval ``[start, end)`` carrying one effect."""

    start: int
    end: float  # int or inf
    event: FaultEvent

    def active(self, step: int) -> bool:
        return self.start <= step < self.end


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
        self._fired_steps: set = set()
        self.stats: Dict[str, int] = {
            "blocked_crash": 0, "blocked_partition": 0,
            "dropped": 0, "duplicated": 0, "delayed": 0,
        }
        self._participation_cache: Dict[tuple, Tuple[List[str], List[str]]] = {}
        self._crash_windows: Dict[str, List[_Window]] = {}
        self._attack_toggles: Dict[str, List[Tuple[int, bool]]] = {}
        self._partition_windows: List[_Window] = []
        self._override_windows: List[_Window] = []
        self._events_by_step: Dict[int, List[FaultEvent]] = {}
        self._compile()

    # ------------------------------------------------------------------ #
    # Schedule compilation: events -> interval tables
    # ------------------------------------------------------------------ #
    def _compile(self) -> None:
        open_partitions: Dict[str, _Window] = {}
        open_overrides: Dict[str, _Window] = {}
        anonymous_overrides: List[_Window] = []
        for event in self.schedule.sorted_events():
            self._events_by_step.setdefault(event.step, []).append(event)
            if event.kind == "crash":
                for node in event.nodes:
                    window = _Window(event.step, _FOREVER, event)
                    self._crash_windows.setdefault(node, []).append(window)
            elif event.kind == "recover":
                for node in event.nodes:
                    windows = self._crash_windows.get(node, [])
                    if windows and windows[-1].end == _FOREVER:
                        windows[-1].end = event.step
            elif event.kind == "partition":
                window = _Window(event.step, _FOREVER, event)
                self._partition_windows.append(window)
                open_partitions[event.label] = window
            elif event.kind == "heal":
                if event.label:
                    window = open_partitions.pop(event.label, None)
                    if window is not None:
                        window.end = event.step
                else:
                    for window in open_partitions.values():
                        window.end = event.step
                    open_partitions.clear()
            elif event.kind in LINK_OVERRIDE_KINDS:
                window = _Window(event.step, _FOREVER, event)
                self._override_windows.append(window)
                if event.label:
                    open_overrides[event.label] = window
                else:
                    anonymous_overrides.append(window)
            elif event.kind == "clear":
                if event.label:
                    window = open_overrides.pop(event.label, None)
                    if window is not None:
                        window.end = event.step
                else:
                    for window in open_overrides.values():
                        window.end = event.step
                    open_overrides.clear()
                    for window in anonymous_overrides:
                        if window.end == _FOREVER:
                            window.end = event.step
                    anonymous_overrides.clear()
            elif event.kind in ("activate_attack", "deactivate_attack"):
                active = event.kind == "activate_attack"
                for node in event.nodes:
                    self._attack_toggles.setdefault(node, []).append(
                        (event.step, active))

    # ------------------------------------------------------------------ #
    # Hook API
    # ------------------------------------------------------------------ #
    def node_alive(self, node_id: str, step: int) -> bool:
        """Whether ``node_id`` participates in the protocol at ``step``."""
        return not any(window.active(step)
                       for window in self._crash_windows.get(node_id, ()))

    def alive_mask(self, node_ids: Sequence[str], step: int) -> np.ndarray:
        """Boolean :meth:`node_alive` mask over ``node_ids`` at ``step``.

        Crash windows are a pure function of ``(schedule, step)`` — never of
        the sampling seed — so the batched multi-replica runtime
        (:meth:`repro.batch.BatchedGuanYuTrainer.step`) computes this mask
        on one replica's controller and shares it across all replicas.
        """
        return np.array([self.node_alive(node_id, step)
                         for node_id in node_ids], dtype=bool)

    def attack_active(self, node_id: str, step: int) -> bool:
        """Whether the attack installed on ``node_id`` is live at ``step``.

        Nodes with no gating events are always active; gated nodes start
        honest when their first gating event is ``activate_attack``.
        """
        toggles = self._attack_toggles.get(node_id)
        if not toggles:
            return True
        state = not toggles[0][1]  # before the first toggle: its opposite
        for toggle_step, active in toggles:
            if toggle_step <= step:
                state = active
        return state

    def link_blocked(self, sender: str, recipient: str, step: int) -> bool:
        """Whether an active partition separates ``sender`` and ``recipient``."""
        for window in self._partition_windows:
            if not window.active(step):
                continue
            sender_group = recipient_group = None
            for index, group in enumerate(window.event.groups):
                if sender in group:
                    sender_group = index
                if recipient in group:
                    recipient_group = index
            if (sender_group is not None and recipient_group is not None
                    and sender_group != recipient_group):
                return True
        return False

    def link_effects(self, sender: str, recipient: str,
                     step: int) -> Tuple[float, float, float]:
        """``(delay_factor, extra_delay, drop_rate)`` for one link at a step.

        Factors multiply, extra delays add, drop rates combine as
        independent losses on top of the schedule's base ``drop_rate``.
        """
        factor, extra = 1.0, 0.0
        keep = 1.0 - self.schedule.drop_rate
        for window in self._override_windows:
            if not window.active(step):
                continue
            event = window.event
            if not event.matches_link(sender, recipient):
                continue
            if event.kind == "slowdown":
                factor *= event.factor
            elif event.kind == "delay_spike":
                extra += event.extra_delay
            elif event.kind == "drop_rate":
                keep *= 1.0 - event.rate
        return factor, extra, 1.0 - keep

    def on_step(self, step: int) -> List[FaultEvent]:
        """Advance the fault log to ``step``; returns the events firing there.

        Purely observational — queries never depend on it having been
        called — but it gives runtimes a single place to trace fault
        activity, and it is idempotent per step.
        """
        with self._lock:
            if step in self._fired_steps:
                return []
            self._fired_steps.add(step)
        return list(self._events_by_step.get(step, ()))

    def on_send(self, sender: str, recipient: str, kind: str,
                step: int) -> SendDecision:
        """Judge one message; see :class:`SendDecision`."""
        if not self.node_alive(sender, step) \
                or not self.node_alive(recipient, step):
            self._count("blocked_crash")
            return SendDecision(deliver=False, blocked_by="crash")
        if self.link_blocked(sender, recipient, step):
            self._count("blocked_partition")
            return SendDecision(deliver=False, blocked_by="partition")
        factor, extra, drop_rate = self.link_effects(sender, recipient, step)
        if drop_rate > 0 and self._uniform("drop", sender, recipient,
                                           kind, step) < drop_rate:
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
        return [sender for sender in senders
                if self.node_alive(sender, step)
                and not self.link_blocked(sender, recipient, step)]

    def participating_nodes(self, worker_ids: Sequence[str],
                            server_ids: Sequence[str], model_quorum: int,
                            gradient_quorum: int,
                            step: int) -> Tuple[List[str], List[str]]:
        """The nodes that can complete protocol step ``step`` under faults.

        A node left short of a quorum *stalls* for the step (state frozen,
        no sends) instead of waiting for messages that active faults — or
        other stalled nodes — guarantee will never arrive.  Stalling is
        transitive, so participation is the greatest fixpoint of:

        * a worker participates iff ≥ ``model_quorum`` participating
          servers can reach it (phase 1);
        * a server participates iff ≥ ``gradient_quorum`` participating
          workers can reach it (phase 2) **and** ≥ ``model_quorum``
          participating servers (itself included) can reach it (phase 3).

        Both runtimes consult this same function — it is a pure function
        of ``(schedule, step)``, so every thread computes the same sets and
        a stalled node is never waited on.  Returns
        ``(participating_workers, participating_servers)``.
        """
        key = (tuple(worker_ids), tuple(server_ids), model_quorum,
               gradient_quorum, step)
        with self._lock:
            cached = self._participation_cache.get(key)
        if cached is not None:
            return cached
        workers = [w for w in worker_ids if self.node_alive(w, step)]
        servers = [s for s in server_ids if self.node_alive(s, step)]
        while True:
            kept_workers = [
                w for w in workers
                if len(self.reachable_senders(w, servers, step))
                >= model_quorum]
            kept_servers = [
                s for s in servers
                if len(self.reachable_senders(s, kept_workers, step))
                >= gradient_quorum
                and len(self.reachable_senders(s, servers, step))
                >= model_quorum]
            if kept_workers == workers and kept_servers == servers:
                break
            workers, servers = kept_workers, kept_servers
        result = (workers, servers)
        with self._lock:
            self._participation_cache[key] = result
        return result

    def gate_attack(self, node_id: str, attack):
        """Wrap ``attack`` so it only fires while active for ``node_id``.

        Attacks without gating events are returned unchanged; ``None``
        passes through (the node is honest).
        """
        if attack is None or node_id not in self._attack_toggles:
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
