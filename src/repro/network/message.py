"""Message types exchanged by the distributed protocol."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

_MESSAGE_COUNTER = itertools.count()


class MessageKind(str, enum.Enum):
    """The three message types of the GuanYu protocol (Figure 2).

    ``MODEL_TO_WORKER``   — phase 1: parameter server → worker, carries θ_t.
    ``GRADIENT_TO_SERVER`` — phase 2: worker → parameter server, carries g_t.
    ``MODEL_TO_SERVER``   — phase 3: parameter server → parameter server,
    carries the locally updated model before the inter-server median.

    Who sends each kind to whom is :data:`ROUTES`.
    """

    MODEL_TO_WORKER = "model_to_worker"
    GRADIENT_TO_SERVER = "gradient_to_server"
    MODEL_TO_SERVER = "model_to_server"


@dataclass(frozen=True)
class Route:
    """The sending and receiving role (``"server"``/``"worker"``) of one
    kind: every sender scatters to every recipient, and each recipient
    keeps the first :meth:`quorum` of them (a
    :class:`~repro.core.config.ClusterConfig` field).

    The names say how a step reports the route, so they take no part in
    equality: ``scatter`` is the span of the senders' scatter, ``collect``
    the span of the recipients' quorums (the servers' exchange has one
    name for both: one span), and ``phase`` the route's key in
    :attr:`~repro.obs.history.StepRecord.phase_durations`.
    """

    senders: str
    recipients: str
    scatter: Optional[str] = field(default=None, compare=False)
    collect: Optional[str] = field(default=None, compare=False)
    phase: Optional[str] = field(default=None, compare=False)

    def of(self, workers, servers) -> tuple:
        """``(senders', recipients')`` picked from two per-role values."""
        return (workers if self.senders == "worker" else servers,
                workers if self.recipients == "worker" else servers)

    def quorum(self, model_quorum: int, gradient_quorum: int) -> int:
        """How many messages of this kind a recipient keeps: its senders'
        quorum, ``gradient_quorum`` gradients from workers or
        ``model_quorum`` models from servers."""
        return self.of(gradient_quorum, model_quorum)[0]


#: who sends which kind to whom, in the order of one protocol step: every
#: engine's step is one walk over this table
ROUTES = {
    MessageKind.MODEL_TO_WORKER: Route(
        "server", "worker", "broadcast", "compute",
        "phase1_models_and_gradients"),
    MessageKind.GRADIENT_TO_SERVER: Route(
        "worker", "server", "gather", "aggregate", "phase2_server_update"),
    MessageKind.MODEL_TO_SERVER: Route(
        "server", "server", "apply", "apply", "phase3_server_exchange"),
}


def one_trusted_server(kinds) -> bool:
    """Whether a protocol walking the routes of ``kinds`` has one trusted
    server rather than replicated ones: it skips the servers' exchange."""
    return MessageKind.MODEL_TO_SERVER not in kinds


@dataclass
class Message:
    """A single message in flight.

    Attributes
    ----------
    sender, recipient:
        Node identifiers (e.g. ``"ps/0"``, ``"worker/3"``).
    kind:
        One of :class:`MessageKind`.
    step:
        The learning step the message belongs to.  GuanYu is bulk-synchronous
        per step: receivers discard messages from other steps.
    payload:
        The flat parameter or gradient vector carried by the message, or
        ``None`` for a silent (never sent) message placeholder.
    send_time, deliver_time:
        Simulated timestamps in seconds.
    """

    sender: str
    recipient: str
    kind: MessageKind
    step: int
    payload: Optional[np.ndarray]
    send_time: float = 0.0
    deliver_time: float = 0.0
    message_id: int = field(default_factory=lambda: next(_MESSAGE_COUNTER))

    @property
    def size_bytes(self) -> int:
        """Approximate wire size of the payload (float32 per entry + header).

        The original implementation serialises float32 tensors into protocol
        buffers; we model the same 4-bytes-per-parameter footprint.
        """
        if self.payload is None:
            return 64
        return 64 + 4 * int(np.asarray(self.payload).size)

    def __lt__(self, other: "Message") -> bool:
        """Order messages by delivery time (ties broken by id for stability)."""
        return (self.deliver_time, self.message_id) < (other.deliver_time, other.message_id)
