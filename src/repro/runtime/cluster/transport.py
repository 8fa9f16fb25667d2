"""Socket transport of the process cluster runtime.

Each node process owns one listening socket and a :class:`SocketTransport`
around it.  The data plane keeps **one connection per (sender, recipient)
pair**: the first send to a peer connects to its listener, every later
frame is written to that connection, and the recipient reads each accepted
connection on one thread.  A peer that died (SIGKILL, or ``close()`` before
a scheduled crash) fails the sender's next write; the sender drops the
connection and reconnects, retrying while nothing listens — which lands the
frame in a respawned incarnation's re-bound listener — and treats the peer
as dead at ``send_deadline``.  The contract is tabulated in
``docs/cluster.md`` ("Data plane").

Delivery semantics mirror :class:`repro.runtime.threads.ThreadedTransport`
frame for frame: per-``(kind, step)`` buckets keyed by sender with
first-message deduplication, ``wait_quorum`` blocking until ``quorum``
distinct senders arrived, ``abandon_step`` discarding mail of sat-out
steps, and an optional :class:`~repro.faults.FaultController` consulted on
the *sender* side exactly as the threaded transport does — plus a second,
receiver-side partition check at the socket layer, so a partitioned link
drops frames even if a buggy sender forwarded them.  Both checks are pure
hash functions of ``(seed, link, step)``, so double filtering is idempotent
and the cross-runtime loss-trajectory equivalence is preserved.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.faults import FaultController
from repro.network.message import MessageKind
from repro.runtime.cluster.protocol import Frame, FrameError, recv_frame, send_frame
from repro.runtime.threads import QuorumTimeout

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


class SocketTransport:
    """Per-process message endpoint with threaded-transport semantics."""

    def __init__(self, node_id: str, listener: socket.socket,
                 jitter: float = 0.0, seed: int = 0,
                 fault_controller: Optional[FaultController] = None,
                 send_deadline: float = 60.0,
                 on_observe: Optional[Callable[[str, int, np.ndarray],
                                               None]] = None) -> None:
        self.node_id = node_id
        self._listener = listener
        self.jitter = jitter
        self.faults = fault_controller
        self.send_deadline = send_deadline
        self.on_observe = on_observe
        self._rng = np.random.default_rng(seed)
        self._addresses: Dict[str, Address] = {}
        #: per recipient: the lock frames are written under, the kept
        #: connection, and how many were opened (1 = never reconnected)
        self._send_locks: Dict[str, threading.Lock] = {}
        self._kept: Dict[str, socket.socket] = {}
        self.connects: Dict[str, int] = defaultdict(int)
        self._accepted: set = set()
        self._lock = threading.Lock()
        self._condition = threading.Condition()
        self._buffers: Dict[Tuple[str, int], Dict[str, np.ndarray]] = \
            defaultdict(dict)
        self._abandoned: set = set()
        self._closed = False
        self.messages_sent = 0
        self.messages_suppressed = 0
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
        for node_id in addresses:
            self._send_locks.setdefault(node_id, threading.Lock())

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
            with self._lock:
                self.messages_suppressed += 1
            return
        with self._condition:
            if frame.step in self._abandoned:
                return  # this node sat the step out; discard late mail
            bucket = self._buffers[(frame.kind, frame.step)]
            # Keep only the first frame per sender (deduplication).
            bucket.setdefault(frame.sender, frame.payload)
            self._condition.notify_all()

    def abandon_step(self, step: int) -> None:
        """Drop (and keep dropping) this node's mail for a sat-out step."""
        with self._condition:
            self._abandoned.add(step)
            for key in [key for key in self._buffers if key[1] == step]:
                del self._buffers[key]

    def wait_quorum(self, kind: MessageKind, step: int, quorum: int,
                    timeout: float = 30.0) -> List[np.ndarray]:
        """Block until ``quorum`` distinct senders delivered, return payloads.

        Payloads are returned in canonical sender order — the threaded
        transport orders by global send sequence instead, but under the
        full quorums and permutation-invariant rules the equivalence gate
        covers, the aggregated multiset (hence the result) is identical.
        """
        deadline = time.monotonic() + timeout
        with self._condition:
            while True:
                bucket = self._buffers[(kind.value, step)]
                if len(bucket) >= quorum:
                    payloads = [bucket[sender]
                                for sender in sorted(bucket)[:quorum]]
                    # Late frames for this (kind, step) are discarded.
                    del self._buffers[(kind.value, step)]
                    return payloads
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise QuorumTimeout(
                        f"{self.node_id} timed out waiting for {quorum} "
                        f"'{kind.value}' frames at step {step} "
                        f"(got {len(bucket)})")
                self._condition.wait(timeout=remaining)

    # ------------------------------------------------------------------ #
    # Sending
    # ------------------------------------------------------------------ #
    def send(self, recipient: str, kind: MessageKind, step: int,
             payload: Optional[np.ndarray]) -> None:
        """Send one data frame; ``payload=None`` models Byzantine silence."""
        if payload is None:
            return
        frame = Frame(kind=kind.value, sender=self.node_id,
                      recipient=recipient, step=step,
                      payload=np.asarray(payload, dtype=np.float64))
        with self._lock:
            self.messages_sent += 1
        delay = 0.0
        duplicate = False
        if self.jitter > 0:
            with self._lock:  # the generator is not thread-safe
                delay = float(self._rng.uniform(0.0, self.jitter))
        if self.faults is not None:
            decision = self.faults.on_send(self.node_id, recipient,
                                           kind.value, step)
            if not decision.deliver:
                with self._lock:
                    self.messages_suppressed += 1
                return
            delay = decision.apply_to_delay(delay)
            duplicate = decision.duplicate
        self._schedule(frame, delay)
        if duplicate:
            # Mirrors the other transports: the copy arrives one delay
            # later and per-sender deduplication at the receiver absorbs it.
            self._schedule(Frame(kind=frame.kind, sender=frame.sender,
                                 recipient=frame.recipient, step=frame.step,
                                 payload=frame.payload), 2 * delay)

    def send_observation(self, recipient: str, step: int,
                         gradient: np.ndarray) -> None:
        """Copy an honest gradient to a Byzantine node's observation board."""
        self._transmit(Frame(kind="observe", sender=self.node_id,
                             recipient=recipient, step=step,
                             payload=np.asarray(gradient, dtype=np.float64)))

    def _schedule(self, frame: Frame, delay: float) -> None:
        if delay > 0:
            timer = threading.Timer(delay, self._transmit, args=(frame,))
            timer.daemon = True
            timer.start()
        else:
            self._transmit(frame)

    def _transmit(self, frame: Frame) -> None:
        """Write ``frame`` to the recipient's kept connection, (re)connecting
        — and retrying while the peer (re)binds — when there is none or the
        write fails.  The peer's lock keeps frames of concurrent senders
        (jitter timers, duplicates) from interleaving.

        A recipient that stays unreachable past the deadline is treated as
        dead and the frame is dropped — exactly what a crashed peer looks
        like, and quorums are what make that survivable.
        """
        recipient = frame.recipient
        if recipient not in self._send_locks:
            raise KeyError(f"unknown recipient '{recipient}'")
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
                    if self._closed or time.monotonic() >= deadline:
                        with self._lock:
                            self.messages_suppressed += 1
                        return
                    time.sleep(_RETRY_SLEEP)

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
