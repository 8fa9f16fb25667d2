"""The cluster's data plane: one kept connection per (sender, recipient).

In-process :class:`SocketTransport` pairs over real sockets, no node
processes.  Pinned here, on both socket families: a kept connection costs
no thread and no ``connect()`` per frame; what a sender observes when its
peer closes and something re-binds the address (the crash/respawn contract
of ``docs/cluster.md``, "Data plane"); frames of concurrent senders never
interleave on the shared connection; and a connection that speaks the frame
protocol badly is torn down alone (first slice of ROADMAP 4(d)).  The
mailbox behind the sockets is ``tests/test_mailbox.py``'s subject.
"""

from __future__ import annotations

import shutil
import socket
import struct
import sys
import tempfile
import threading
import time

import numpy as np
import pytest

from repro.faults import FaultController, FaultSchedule
from repro.network.message import MessageKind
from repro.runtime.cluster.protocol import MAX_FRAME_BYTES, Frame, send_frame
from repro.runtime.cluster.transport import (
    SocketTransport,
    bind_listener,
    connect,
    unix_sockets_available,
)
from repro.runtime.live import QuorumTimeout

KIND = MessageKind.GRADIENT_TO_SERVER
#: the two-node cluster of these tests: ``a`` sends gradients to ``b``
WORKERS, SERVERS = ["a"], ["b"]

FAMILIES = [
    pytest.param("unix", marks=pytest.mark.skipif(
        not unix_sockets_available(), reason="no AF_UNIX here")),
    "tcp",
]


def wait_until(condition, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.005)
    return True


@pytest.fixture(params=FAMILIES)
def cluster(request):
    """``make(node_id, **kwargs)`` binds a transport on a stable per-id
    address (re-binding an id after ``close()`` is the respawn) and wires
    every transport made so far to every address."""
    directory = tempfile.mkdtemp(prefix="repro-tp-")
    addresses, transports = {}, []
    threads_before = threading.active_count()

    def address_of(node_id):
        if node_id not in addresses:
            if request.param == "unix":
                addresses[node_id] = {"family": "unix",
                                      "path": f"{directory}/{node_id}.sock"}
            else:
                with socket.socket() as probe:
                    probe.bind(("127.0.0.1", 0))
                    port = probe.getsockname()[1]
                addresses[node_id] = {"family": "tcp", "host": "127.0.0.1",
                                      "port": port}
        return addresses[node_id]

    def make(node_id, **kwargs):
        transport = SocketTransport(
            node_id, bind_listener(address_of(node_id)), WORKERS, SERVERS,
            **kwargs)
        transports.append(transport)
        for other in transports:
            other.set_addresses(addresses)
        return transport

    make.address_of = address_of
    yield make
    for transport in transports:
        transport.close()
    # the next test counts threads: let this one's accept/reader threads go
    wait_until(lambda: threading.active_count() <= threads_before)
    shutil.rmtree(directory, ignore_errors=True)


def vector(step: int, size: int = 32) -> np.ndarray:
    return np.full(size, float(step))


@pytest.mark.timeout(60)
class TestKeptConnection:
    def test_500_frames_one_connection_no_thread_per_frame(self, cluster):
        a, b = cluster("a"), cluster("b")
        threads_after_first = None
        for step in range(500):
            a.send("b", KIND, step, vector(step))
            (payload,) = b.wait_quorum(KIND, step, quorum=1, timeout=10.0)
            assert payload[0] == step
            if step == 0:
                threads_after_first = threading.active_count()
        assert threading.active_count() == threads_after_first
        assert dict(a.connects) == {"b": 1}
        assert len(b._accepted) == 1
        assert a.messages_sent == 500 and a.messages_suppressed == 0

    def test_close_lets_the_reader_threads_exit(self, cluster):
        before = threading.active_count()
        a, b = cluster("a"), cluster("b")
        a.send("b", KIND, 0, vector(0))
        b.wait_quorum(KIND, 0, quorum=1, timeout=10.0)
        a.close()
        b.close()
        # accept loop and per-peer reader of both transports are gone
        assert wait_until(lambda: threading.active_count() <= before)
        assert not b._accepted


@pytest.mark.timeout(60)
class TestCrashAndRespawn:
    def test_frame_for_a_closed_peer_lands_in_its_next_incarnation(
            self, cluster):
        a, b = cluster("a", send_deadline=20.0), cluster("b")
        a.send("b", KIND, 0, vector(0))
        b.wait_quorum(KIND, 0, quorum=1, timeout=10.0)  # connection is kept

        b.close()  # what a node does before it reports a scheduled crash
        sender = threading.Thread(
            target=a.send, args=("b", KIND, 1, vector(1)), daemon=True)
        sender.start()
        sender.join(timeout=0.3)
        assert sender.is_alive()  # nothing is bound: the send is retrying

        reborn = cluster("b")  # same id, same address
        (payload,) = reborn.wait_quorum(KIND, 1, quorum=1, timeout=10.0)
        assert payload[0] == 1.0
        sender.join(timeout=10.0)
        assert not sender.is_alive()
        assert not any(key[1] == 1 for key in b._buffers)  # never the old one
        assert dict(a.connects) == {"b": 2}
        assert a.messages_suppressed == 0

    def test_frame_for_a_dead_peer_is_dropped_once_at_the_deadline(
            self, cluster):
        a, b = cluster("a", send_deadline=0.3), cluster("b")
        a.send("b", KIND, 0, vector(0))
        b.wait_quorum(KIND, 0, quorum=1, timeout=10.0)
        b.close()
        started = time.monotonic()
        a.send("b", KIND, 1, vector(1))
        assert 0.3 <= time.monotonic() - started < 5.0
        assert a.messages_suppressed == 1
        assert dict(a.connects) == {"b": 1}

    def test_killed_peer_without_close(self, cluster):
        # SIGKILL closes every descriptor at once and runs no close():
        # model it by shutting the listener and the accepted connection
        # down directly, leaving the socket file behind like a dead process.
        a, b = cluster("a", send_deadline=0.3), cluster("b")
        a.send("b", KIND, 0, vector(0))
        b.wait_quorum(KIND, 0, quorum=1, timeout=10.0)
        for sock in [b._listener, *b._accepted]:
            sock.shutdown(socket.SHUT_RDWR)
        a.send("b", KIND, 1, vector(1))  # write fails → refused → dropped
        assert a.messages_suppressed == 1
        assert not any(key[1] == 1 for key in b._buffers)


@pytest.mark.timeout(120)
class TestConcurrentSenders:
    def test_frames_of_threads_timers_and_duplicates_never_interleave(
            self, cluster):
        faults = FaultController(FaultSchedule(duplicate_rate=0.5), seed=3)
        a = cluster("a", jitter=0.002, seed=1, fault_controller=faults)
        b = cluster("b")
        threads, per_thread, size = 8, 100, 4096  # 32 KB frames

        def burst(index):
            for step in range(index * per_thread, (index + 1) * per_thread):
                a.send("b", KIND, step, vector(step, size))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            senders = [threading.Thread(target=burst, args=(index,),
                                        daemon=True)
                       for index in range(threads)]
            for thread in senders:
                thread.start()
            for thread in senders:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)

        total = threads * per_thread
        assert wait_until(lambda: len(b._buffers) == total, timeout=30.0)
        time.sleep(0.05)  # let the last duplicates' timers (≤ 2 × jitter) fire
        assert faults.stats["duplicated"] > 0
        # One interleaved write would have failed a decode, torn the
        # connection down and forced a reconnect.
        assert dict(a.connects) == {"b": 1}
        assert len(b._accepted) == 1
        with b._condition:
            for step in range(total):
                bucket = b._buffers[(KIND.value, step)]
                assert list(bucket) == ["a"]  # duplicates absorbed
                assert bucket["a"].shape == (size,)
                assert np.all(bucket["a"] == step)


@pytest.mark.timeout(60)
class TestMalformedConnections:
    """A bad connection dies alone; an honest sender's frames keep coming."""

    @staticmethod
    def truncated_frame() -> bytes:
        wire = Frame(kind=KIND.value, sender="evil", recipient="b", step=0,
                     payload=np.ones(100)).encode()
        return wire[:-300]

    @pytest.mark.parametrize("garbage", [
        struct.pack("!I", MAX_FRAME_BYTES + 1),
        b"truncated",
        b"",
    ], ids=["oversize-header-length", "truncated-payload", "never-writes"])
    def test_garbage_is_torn_down_alone(self, cluster, garbage):
        a, b = cluster("a"), cluster("b")
        a.send("b", KIND, 0, vector(0))
        b.wait_quorum(KIND, 0, quorum=1, timeout=10.0)

        if garbage == b"truncated":
            garbage = self.truncated_frame()
        bad = connect(cluster.address_of("b"), timeout=5.0)
        try:
            assert wait_until(lambda: len(b._accepted) == 2)
            if garbage:
                bad.sendall(garbage)
            if garbage and len(garbage) == 4:
                # refused at the length prefix: the receiver hangs up
                bad.settimeout(5.0)
                assert bad.recv(1) == b""
            # the honest connection is untouched, before the bad one closes…
            a.send("b", KIND, 1, vector(1))
            (payload,) = b.wait_quorum(KIND, 1, quorum=1, timeout=10.0)
            assert payload[0] == 1.0
        finally:
            bad.close()
        # …and after: its reader is gone, the honest one still serves
        assert wait_until(lambda: len(b._accepted) == 1)
        a.send("b", KIND, 0, vector(0))
        a.send("b", KIND, 2, vector(2))
        b.wait_quorum(KIND, 2, quorum=1, timeout=10.0)
        # the garbage never counted toward a quorum: step 0 holds a's late
        # frame only, however long the wait
        with pytest.raises(QuorumTimeout, match=r"got 1"):
            b.wait_quorum(KIND, 0, quorum=2, timeout=0.3)
        assert dict(a.connects) == {"b": 1}

    def test_well_formed_frames_of_a_forged_sender_are_dropped(self, cluster):
        a, b = cluster("a"), cluster("b")
        bad = connect(cluster.address_of("b"), timeout=5.0)
        with bad:
            for sender in ("evil", "b"):  # a stranger; a server as a worker
                send_frame(bad, Frame(kind=KIND.value, sender=sender,
                                      recipient="b", step=0,
                                      payload=vector(9)))
            assert wait_until(lambda: b.messages_suppressed == 2)
        a.send("b", KIND, 0, vector(0))
        with pytest.raises(QuorumTimeout, match=r"got 1"):
            b.wait_quorum(KIND, 0, quorum=2, timeout=0.3)
        (payload,) = b.wait_quorum(KIND, 0, quorum=1, timeout=10.0)
        assert payload[0] == 0.0

    def test_honest_frame_before_the_address_map_still_counts(self, cluster):
        # a faster peer's first frame can land before START's address map:
        # senders are checked against the ids known at construction
        b = SocketTransport("b", bind_listener(cluster.address_of("b")),
                            WORKERS, SERVERS)
        try:
            a = cluster("a")
            a.send("b", KIND, 0, vector(0))
            (payload,) = b.wait_quorum(KIND, 0, quorum=1, timeout=10.0)
            assert payload[0] == 0.0 and b._addresses == {}
        finally:
            b.close()
