"""Discrete-event message delivery simulator.

The simulator keeps one mailbox per recipient.  Senders call :meth:`send`
with a send timestamp; the simulator samples a delay from the configured
:class:`~repro.network.delays.DelayModel`, consults the optional
:class:`~repro.faults.FaultController` (crashes, partitions, drop rates,
delay spikes, duplication), and records the delivery.  Receivers call
:meth:`collect_quorum` to obtain the *first q* messages of a given kind and
step — exactly the delivery rule of GuanYu (Figure 2, "late messages being
discarded") — together with the simulated time at which the q-th message
arrived.

The simulator never assumes a bound on delays: quorum collection only
requires that enough correct senders eventually respond, which the caller
guarantees by construction (quorums ≤ number of correct nodes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.faults import FaultController
from repro.network.delays import ConstantDelay, DelayModel
from repro.network.message import Message, MessageKind


@dataclass
class NetworkStats:
    """Aggregate statistics maintained by the simulator.

    ``messages_delivered`` counts actual mailbox deliveries — duplicates
    included — and is the divisor of :attr:`mean_delay`, so duplicated
    deliveries (whose delay also accrues to ``total_delay``) cannot skew
    the mean.  ``messages_blocked`` counts deterministic fault suppression
    (crashed endpoints, active partitions), kept separate from the
    probabilistic ``messages_dropped``.
    """

    messages_sent: int = 0
    messages_dropped: int = 0
    messages_blocked: int = 0
    messages_duplicated: int = 0
    messages_delivered: int = 0
    bytes_sent: int = 0
    total_delay: float = 0.0

    @property
    def mean_delay(self) -> float:
        return (self.total_delay / self.messages_delivered
                if self.messages_delivered > 0 else 0.0)


@dataclass
class DeliveryRecord:
    """Result of a quorum collection."""

    messages: List[Message]
    completion_time: float
    waited_for: int

    @property
    def payloads(self) -> List[np.ndarray]:
        return [m.payload for m in self.messages]

    @property
    def senders(self) -> List[str]:
        return [m.sender for m in self.messages]


class NetworkSimulator:
    """Seeded asynchronous message-passing simulator.

    Parameters
    ----------
    delay_model:
        Delay distribution applied to every message.
    seed:
        Seed of the simulator's random generator (delays).
    fault_controller:
        Declarative fault injection (crashes, partitions, per-link delay
        spikes / drop rates, and the whole-run ``drop_rate`` /
        ``duplicate_rate`` of its :class:`~repro.faults.FaultSchedule`).
        The protocol layer re-reads quorums and deduplicates by sender, so
        occasional losses and duplicates only slow progress.
    """

    def __init__(self, delay_model: Optional[DelayModel] = None, seed: int = 0,
                 fault_controller: Optional[FaultController] = None) -> None:
        self.delay_model = delay_model if delay_model is not None else ConstantDelay()
        self.faults = fault_controller
        self._rng = np.random.default_rng(seed)
        self._mailboxes: Dict[str, List[Message]] = {}
        self.stats = NetworkStats()

    # ------------------------------------------------------------------ #
    # Sending
    # ------------------------------------------------------------------ #
    def send(self, sender: str, recipient: str, kind: MessageKind, step: int,
             payload: Optional[np.ndarray], send_time: float,
             delay_override: Optional[float] = None) -> Optional[Message]:
        """Send one message; returns the scheduled message or ``None`` if lost.

        ``delay_override`` lets Byzantine senders use the adversary's
        arbitrarily fast covert channel (the paper allows Byzantine nodes to
        coordinate out of band and to race honest messages).
        """
        if payload is None:
            # Silent behaviour: nothing ever reaches the network.
            return None
        message = Message(sender=sender, recipient=recipient, kind=kind,
                          step=step, payload=np.asarray(payload, dtype=np.float64),
                          send_time=send_time)
        self.stats.messages_sent += 1
        self.stats.bytes_sent += message.size_bytes

        decision = None
        if self.faults is not None:
            decision = self.faults.on_send(sender, recipient, kind.value, step)
            if not decision.deliver:
                if decision.blocked_by == "drop":
                    self.stats.messages_dropped += 1
                else:  # crash / partition: deterministic suppression
                    self.stats.messages_blocked += 1
                return None

        if delay_override is not None:
            delay = max(float(delay_override), 0.0)
        else:
            delay = self.delay_model.sample(self._rng, sender, recipient,
                                            message.size_bytes)
        if decision is not None:
            delay = decision.apply_to_delay(delay)
        message.deliver_time = send_time + delay
        self.stats.total_delay += delay
        self.stats.messages_delivered += 1
        self._mailboxes.setdefault(recipient, []).append(message)

        if decision is not None and decision.duplicate:
            duplicate = Message(sender=sender, recipient=recipient, kind=kind,
                                step=step, payload=message.payload,
                                send_time=send_time,
                                deliver_time=message.deliver_time + delay)
            self._mailboxes.setdefault(recipient, []).append(duplicate)
            self.stats.messages_duplicated += 1
            self.stats.messages_delivered += 1
            self.stats.total_delay += 2 * delay
        return message

    def broadcast(self, sender: str, recipients: List[str], kind: MessageKind,
                  step: int, payload: Optional[np.ndarray], send_time: float) -> None:
        """Send the same payload to every recipient."""
        for recipient in recipients:
            self.send(sender, recipient, kind, step, payload, send_time)

    # ------------------------------------------------------------------ #
    # Receiving
    # ------------------------------------------------------------------ #
    def collect_quorum(self, recipient: str, kind: MessageKind, step: int,
                       quorum: int, not_before: float = 0.0) -> DeliveryRecord:
        """Return the first ``quorum`` messages of the given kind and step.

        The receiver starts waiting at ``not_before`` (its local clock);
        messages delivered earlier are buffered and still count towards the
        quorum.  Duplicate senders are collapsed to their earliest delivery —
        a Byzantine sender cannot fill the quorum with copies of itself.

        Raises
        ------
        RuntimeError
            If fewer than ``quorum`` distinct senders ever deliver a message
            of this kind/step.  Under a correct configuration (quorum ≤
            number of correct senders) this indicates a protocol bug, so the
            error is loud rather than a silent stall.
        """
        if quorum <= 0:
            raise ValueError("quorum must be positive")
        mailbox = self._mailboxes.get(recipient, [])
        candidates = [m for m in mailbox if m.kind == kind and m.step == step]

        # Deduplicate by sender, keeping the earliest delivery.
        by_sender: Dict[str, Message] = {}
        for message in sorted(candidates):
            if message.sender not in by_sender:
                by_sender[message.sender] = message
        ordered = sorted(by_sender.values())

        if len(ordered) < quorum:
            raise RuntimeError(
                f"{recipient} needed a quorum of {quorum} '{kind.value}' messages "
                f"for step {step} but only {len(ordered)} distinct senders delivered"
            )
        chosen = ordered[:quorum]
        completion = max(not_before, chosen[-1].deliver_time)

        # Late messages are discarded (paper, Figure 2): remove every message
        # of this kind/step from the mailbox, delivered or not.
        self._mailboxes[recipient] = [
            m for m in mailbox if not (m.kind == kind and m.step == step)
        ]
        return DeliveryRecord(messages=chosen, completion_time=completion,
                              waited_for=quorum)

    def pending_count(self, recipient: str) -> int:
        """Number of messages currently buffered for ``recipient``."""
        return len(self._mailboxes.get(recipient, []))

    def purge_step(self, step: int) -> int:
        """Discard all buffered messages belonging to ``step``; returns count."""
        removed = 0
        for recipient, mailbox in self._mailboxes.items():
            kept = [m for m in mailbox if m.step != step]
            removed += len(mailbox) - len(kept)
            self._mailboxes[recipient] = kept
        return removed
