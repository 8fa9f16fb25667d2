"""Message types exchanged by the distributed protocol."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

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


class Route(NamedTuple):
    """The sending and receiving role (``"server"``/``"worker"``) of one
    kind: every sender scatters to every recipient, and each recipient
    keeps the first ``q`` (the kind's quorum in
    :class:`~repro.core.config.ClusterConfig`)."""

    senders: str
    recipients: str

    def of(self, workers, servers) -> tuple:
        """``(senders', recipients')`` picked from two per-role values."""
        roles = {"worker": workers, "server": servers}
        return roles[self.senders], roles[self.recipients]


#: who sends which kind to whom
ROUTES = {
    MessageKind.MODEL_TO_WORKER: Route("server", "worker"),
    MessageKind.GRADIENT_TO_SERVER: Route("worker", "server"),
    MessageKind.MODEL_TO_SERVER: Route("server", "server"),
}


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
