"""Socket transport of the process cluster runtime.

Each node process owns one listening socket and a :class:`SocketTransport`
around it.  The data plane keeps **one connection per (sender, recipient)
pair**: the first send to a peer connects to its listener, every later
frame is written to that connection, and the recipient reads each accepted
connection on one thread.  A frame a node addresses to itself (a server's
model to itself) never touches a socket: it goes straight into the node's
own mailbox.  A peer that died (SIGKILL, or ``close()`` before
a scheduled crash) fails the sender's next write; the sender drops the
connection and reconnects, retrying while nothing listens — which lands the
frame in a respawned incarnation's re-bound listener — and treats the peer
as dead at ``send_deadline``.  The contract is tabulated in
``docs/cluster.md`` ("Data plane").

Delivery semantics are not this module's: the mailbox (buckets,
deduplication, sender validation, ``wait_quorum``, ``abandon_step``) and
the send policy (silence, jitter, the sender-side
:class:`~repro.faults.FaultController` decision, duplicates) are
:class:`repro.runtime.live.Endpoint`'s, shared with the threaded runtime.
What is added here is the wire — plus a second, receiver-side partition
check at the socket layer, so a partitioned link drops frames even if a
buggy sender forwarded them.  Both checks are pure hash functions of
``(seed, link, step)``, so double filtering is idempotent and the
cross-runtime loss-trajectory equivalence is preserved.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.faults import FaultController
from repro.runtime.cluster.protocol import Frame, FrameError, recv_frame, send_frame
from repro.runtime.live import Endpoint

__all__ = ["Address", "SocketTransport", "bind_listener", "connect",
           "unix_sockets_available"]

#: JSON-friendly address: ``{"family": "unix", "path": ...}`` or
#: ``{"family": "tcp", "host": ..., "port": ...}``
Address = Dict[str, object]

#: seconds between connection retries while a peer (re)binds its listener
_RETRY_SLEEP = 0.02


def bind_listener(address: Address, backlog: int = 128) -> socket.socket:
    """Bind and listen on ``address``; raises ``OSError`` when taken."""
    if address["family"] == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.bind(str(address["path"]))
            sock.listen(backlog)
        except OSError:
            sock.close()
            raise
        return sock
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((str(address["host"]), int(address["port"])))
        sock.listen(backlog)
    except OSError:
        sock.close()
        raise
    return sock


def connect(address: Address, timeout: Optional[float] = None) -> socket.socket:
    """Open a connection to ``address`` (raises ``OSError`` on refusal)."""
    if address["family"] == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        target = str(address["path"])
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        target = (str(address["host"]), int(address["port"]))
    try:
        if timeout is not None:
            sock.settimeout(timeout)
        sock.connect(target)
        sock.settimeout(None)
    except OSError:
        sock.close()
        raise
    return sock


def unix_sockets_available() -> bool:
    """Whether ``AF_UNIX`` sockets work here (the default transport)."""
    return hasattr(socket, "AF_UNIX")


def _peer_gone(conn: socket.socket) -> bool:
    """Whether a kept TCP connection saw EOF or a reset.  The data plane is
    one-way, so a readable socket can only mean the peer is gone — and
    unlike a Unix socket, TCP would accept one more write before failing."""
    try:
        conn.recv(1, socket.MSG_DONTWAIT | socket.MSG_PEEK)
    except BlockingIOError:
        return False
    except OSError:
        pass
    return True


def _shut(sock: socket.socket) -> None:
    """Close so that the peer and any thread blocked on ``sock`` notice."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    sock.close()


class SocketTransport(Endpoint):
    """The socket wire of a node process's endpoint."""

    def __init__(self, node_id: str, listener: socket.socket,
                 worker_ids: Sequence[str], server_ids: Sequence[str],
                 jitter: float = 0.0, seed: int = 0,
                 fault_controller: Optional[FaultController] = None,
                 send_deadline: float = 60.0,
                 on_observe: Optional[Callable[[str, int, np.ndarray],
                                               None]] = None) -> None:
        super().__init__(node_id, worker_ids, server_ids, jitter=jitter,
                         seed=seed, fault_controller=fault_controller)
        self._listener = listener
        self.send_deadline = send_deadline
        self.on_observe = on_observe
        self._addresses: Dict[str, Address] = {}
        #: per recipient: the lock frames are written under, the kept
        #: connection, and how many were opened (1 = never reconnected)
        self._send_locks = {peer: threading.Lock() for peer in self._node_ids}
        self._kept: Dict[str, socket.socket] = {}
        self.connects: Dict[str, int] = defaultdict(int)
        self._accepted: set = set()
        self._closed = False
        self._accept_thread = threading.Thread(target=self._accept_loop,
                                               daemon=True,
                                               name=f"accept-{node_id}")
        self._accept_thread.start()

    # ------------------------------------------------------------------ #
    # Receiving
    # ------------------------------------------------------------------ #
    def set_addresses(self, addresses: Dict[str, Address]) -> None:
        """Install the supervisor-distributed ``node_id → address`` map."""
        self._addresses = dict(addresses)

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed — shutdown
            with self._lock:
                if self._closed:  # accepted while close() was running
                    conn.close()
                    return
                self._accepted.add(conn)
            thread = threading.Thread(target=self._serve, args=(conn,),
                                      daemon=True)
            thread.start()

    def _serve(self, conn: socket.socket) -> None:
        """Read one peer's connection until EOF, an error or ``close()``."""
        try:
            with conn:
                while True:
                    frame = recv_frame(conn)
                    if frame is None:
                        return
                    self._dispatch(frame)
        except (FrameError, OSError):
            return  # a torn connection loses its in-flight frame, like UDP
        finally:
            with self._lock:
                self._accepted.discard(conn)

    def _dispatch(self, frame: Frame) -> None:
        if frame.kind == "observe":
            if self.on_observe is not None and frame.payload is not None:
                self.on_observe(frame.sender, frame.step, frame.payload)
            return
        if frame.payload is None:
            return
        # Socket-layer partition enforcement: the receiving endpoint drops
        # frames of a blocked link even if the sender forwarded them.
        if self.faults is not None and self.faults.link_blocked(
                frame.sender, self.node_id, frame.step):
            self._suppress()
            return
        self.deliver(frame.sender, frame.kind, frame.step, frame.payload)

    # ------------------------------------------------------------------ #
    # Sending
    # ------------------------------------------------------------------ #
    def send_observation(self, recipient: str, step: int,
                         gradient: np.ndarray) -> None:
        """Copy an honest gradient to a Byzantine node's observation board."""
        self._transmit(recipient, "observe", step,
                       np.asarray(gradient, dtype=np.float64))

    def _transmit(self, recipient: str, kind: str, step: int,
                  payload: np.ndarray) -> None:
        """Write one frame to the recipient's kept connection, (re)connecting
        — and retrying while the peer (re)binds — when there is none or the
        write fails.  The peer's lock keeps frames of concurrent senders
        (jitter timers, duplicates) from interleaving.

        A recipient that stays unreachable past the deadline is treated as
        dead and the frame is dropped — exactly what a crashed peer looks
        like, and quorums are what make that survivable.

        A frame to this node itself is filed in its own mailbox (a copy,
        as the socket would have handed over), like the in-process wire.
        """
        if recipient == self.node_id:
            self.deliver(recipient, kind, step, payload.copy())
            return
        frame = Frame(kind=kind, sender=self.node_id, recipient=recipient,
                      step=step, payload=payload)
        deadline = time.monotonic() + self.send_deadline
        with self._send_locks[recipient]:
            while True:
                try:
                    conn = self._kept.get(recipient)
                    if conn is None:
                        conn = self._kept[recipient] = self._open(recipient)
                    elif conn.family == socket.AF_INET and _peer_gone(conn):
                        raise ConnectionResetError
                    send_frame(conn, frame)
                    return
                except OSError:
                    stale = self._kept.pop(recipient, None)
                    if stale is not None:
                        stale.close()
                    if self._closed or time.monotonic() >= deadline \
                            or self._outlived(recipient, step):
                        self._suppress()
                        return
                    time.sleep(_RETRY_SLEEP)

    def _outlived(self, recipient: str, step: int) -> bool:
        """Whether a refused frame for ``step`` can never be read: the
        schedule first crashes ``recipient`` after ``step``, so the step is
        its first incarnation's, bound before the run started, and a
        refusal means it has reached that crash (a respawn resumes past
        it).  Retrying would only stall this sender until the deadline."""
        if self.faults is None:
            return False
        return min((event.step for event in self.faults.schedule.events
                    if event.kind == "crash" and recipient in event.nodes),
                   default=-1) > step

    def _open(self, recipient: str) -> socket.socket:
        conn = connect(self._addresses[recipient], timeout=self.send_deadline)
        if conn.family == socket.AF_INET:
            # One-way traffic: Nagle would hold each frame for the peer's
            # delayed ACK of the one before.
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.connects[recipient] += 1
        return conn

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop listening and shut every accepted and every kept outgoing
        connection: from here on a peer's write fails, and its retried
        connect is refused until something re-binds the address."""
        with self._lock:
            self._closed = True
            accepted = list(self._accepted)
        if self._listener.family == getattr(socket, "AF_UNIX", None):
            try:
                os.unlink(self._listener.getsockname())
            except (OSError, TypeError):
                pass
        # Listener first: a peer whose kept connection then fails must find
        # the address refusing, not this incarnation's backlog.
        for sock in [self._listener, *accepted, *list(self._kept.values())]:
            _shut(sock)
