"""The one mailbox, on both wires.

:class:`repro.runtime.live.Endpoint` owns the quorum mailbox and the send
policy of the threaded runtime and of the process cluster; the two differ
only in the wire.  Every behaviour here is therefore checked once, over
``("in-process", "unix-socket pair")``, plus one generated property on
``Endpoint`` alone.  What is about sockets (torn headers, slow-loris,
crash and respawn) lives in ``tests/test_cluster_transport.py``.
"""

from __future__ import annotations

import shutil
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultController, FaultSchedule
from repro.network.message import MessageKind
from repro.runtime.cluster.transport import (
    SocketTransport,
    bind_listener,
    unix_sockets_available,
)
from repro.runtime.live import Endpoint, QuorumTimeout
from repro.runtime.threads import ThreadEndpoint

WORKERS = ["worker/0", "worker/1", "worker/2"]
SERVERS = ["ps/0", "ps/1", "ps/2"]
TO_WORKER = MessageKind.MODEL_TO_WORKER
TO_SERVER = MessageKind.MODEL_TO_SERVER
GRADIENT = MessageKind.GRADIENT_TO_SERVER

WIRES = [
    "in-process",
    pytest.param("unix-socket pair", marks=pytest.mark.skipif(
        not unix_sockets_available(), reason="no AF_UNIX here")),
]


def wait_until(condition, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.005)
    return True


@pytest.fixture(params=WIRES)
def wire(request):
    """``make(node_id, **kwargs)``: an endpoint of the 3w+3s cluster (or of
    a stranger — any id can be *made*, only members are *listened to*),
    wired to every endpoint made so far.  Making an id again replaces it."""
    if request.param == "in-process":
        peers = {}

        def make(node_id, **kwargs):
            peers[node_id] = ThreadEndpoint(peers, node_id, WORKERS, SERVERS,
                                            **kwargs)
            return peers[node_id]

        yield make
        return

    directory = tempfile.mkdtemp(prefix="repro-mb-")
    addresses, transports = {}, {}

    def make(node_id, **kwargs):
        if node_id in transports:
            transports[node_id].close()
        addresses[node_id] = {
            "family": "unix",
            "path": f"{directory}/{node_id.replace('/', '-')}.sock"}
        transports[node_id] = SocketTransport(
            node_id, bind_listener(addresses[node_id]), WORKERS, SERVERS,
            **kwargs)
        for transport in transports.values():
            transport.set_addresses(addresses)
        return transports[node_id]

    yield make
    for transport in transports.values():
        transport.close()
    shutil.rmtree(directory, ignore_errors=True)


def has_mail(endpoint, kind, step) -> bool:
    with endpoint._condition:
        return bool(endpoint._buffers.get((kind.value, step)))


@pytest.mark.timeout(60)
class TestMailbox:
    def test_send_then_quorum(self, wire):
        ps0, w0 = wire("ps/0"), wire("worker/0")
        ps0.send("worker/0", TO_WORKER, 0, np.ones(3))
        (payload,) = w0.wait_quorum(TO_WORKER, 0, 1, timeout=5.0)
        assert np.array_equal(payload, np.ones(3))
        assert ps0.messages_sent == 1 and ps0.messages_suppressed == 0

    def test_none_is_silence(self, wire):
        ps0, w0 = wire("ps/0"), wire("worker/0")
        ps0.send("worker/0", TO_WORKER, 0, None)
        with pytest.raises(QuorumTimeout):
            w0.wait_quorum(TO_WORKER, 0, 1, timeout=0.2)
        assert ps0.messages_sent == 0

    def test_duplicate_sender_counts_once_first_payload_wins(self, wire):
        ps0, w0 = wire("ps/0"), wire("worker/0")
        ps0.send("worker/0", TO_WORKER, 0, np.zeros(2))
        ps0.send("worker/0", TO_WORKER, 0, np.ones(2))
        ps0.send("worker/0", TO_WORKER, 1, np.ones(2))  # same wire: ordered
        w0.wait_quorum(TO_WORKER, 1, 1, timeout=5.0)
        with pytest.raises(QuorumTimeout):
            w0.wait_quorum(TO_WORKER, 0, 2, timeout=0.2)
        (payload,) = w0.wait_quorum(TO_WORKER, 0, 1, timeout=5.0)
        assert np.array_equal(payload, np.zeros(2))

    def test_other_step_mail_does_not_satisfy_a_quorum(self, wire):
        ps0, w0 = wire("ps/0"), wire("worker/0")
        ps0.send("worker/0", TO_WORKER, 1, np.zeros(1))
        with pytest.raises(QuorumTimeout):
            w0.wait_quorum(TO_WORKER, 0, 1, timeout=0.2)

    def test_payloads_come_back_in_sender_order(self, wire):
        w0 = wire("worker/0")
        for index in (2, 0, 1):  # arrival order is not sender order
            wire(f"ps/{index}").send("worker/0", TO_WORKER, 0,
                                     np.full(2, float(index)))
            assert wait_until(lambda: has_mail(w0, TO_WORKER, 0))
        payloads = w0.wait_quorum(TO_WORKER, 0, 3, timeout=5.0)
        assert [payload[0] for payload in payloads] == [0.0, 1.0, 2.0]

    def test_abandon_step_discards_present_and_late_mail(self, wire):
        ps0, w0 = wire("ps/0"), wire("worker/0")
        ps0.send("worker/0", TO_WORKER, 0, np.ones(1))
        assert wait_until(lambda: has_mail(w0, TO_WORKER, 0))
        w0.abandon_step(0)
        assert w0._buffers == {}
        # late mail for the abandoned step is dropped on arrival too…
        ps0.send("worker/0", TO_WORKER, 0, np.ones(1))
        # …and other steps are unaffected (same wire: it arrived after)
        ps0.send("worker/0", TO_WORKER, 1, np.ones(1))
        assert len(w0.wait_quorum(TO_WORKER, 1, 1, timeout=5.0)) == 1
        assert w0._buffers == {}

    def test_timeout_text_names_the_shortfall(self, wire):
        ps0, w0 = wire("ps/0"), wire("worker/0")
        ps0.send("worker/0", TO_WORKER, 0, np.ones(2))
        assert wait_until(lambda: has_mail(w0, TO_WORKER, 0))
        with pytest.raises(
                QuorumTimeout,
                match=r"worker/0 timed out waiting for 2 'model_to_worker' "
                      r"messages at step 0 \(got 1\)"):
            w0.wait_quorum(TO_WORKER, 0, 2, timeout=0.2)

    def test_unknown_recipient_raises(self, wire):
        ps0 = wire("ps/0")
        with pytest.raises(KeyError, match="unknown recipient 'nobody'"):
            ps0.send("nobody", TO_WORKER, 0, np.zeros(1))

    def test_faulted_messages_are_suppressed_at_the_sender(self, wire):
        controller = FaultController(
            FaultSchedule.crash_window(["ps/0"], 0, 2), seed=0)
        ps0, w0 = wire("ps/0", fault_controller=controller), wire("worker/0")
        ps0.send("worker/0", TO_WORKER, 0, np.ones(1))
        assert (ps0.messages_sent, ps0.messages_suppressed) == (1, 1)
        ps0.send("worker/0", TO_WORKER, 2, np.ones(1))
        assert len(w0.wait_quorum(TO_WORKER, 2, 1, timeout=5.0)) == 1

    def test_fault_duplicates_are_deduplicated(self, wire):
        controller = FaultController(FaultSchedule(duplicate_rate=0.999),
                                     seed=0)
        ps0, ps1 = wire("ps/0", fault_controller=controller), wire("ps/1")
        w0 = wire("worker/0")
        for step in range(20):
            ps0.send("worker/0", TO_WORKER, step, np.ones(1))
        assert controller.stats["duplicated"] > 10
        ps1.send("worker/0", TO_WORKER, 19, np.ones(1))
        # every bucket holds ps/0 once: only ps/1 makes a quorum of two
        assert len(w0.wait_quorum(TO_WORKER, 19, 2, timeout=5.0)) == 2
        for step in range(19):
            with pytest.raises(QuorumTimeout, match=r"\(got 1\)"):
                w0.wait_quorum(TO_WORKER, step, 2, timeout=0.0)


@pytest.mark.timeout(60)
class TestSenderValidation:
    """A frame counts only if its sender is a node of the cluster whose
    role may send that kind (ROADMAP 4(d): a forged sender id)."""

    def test_unknown_and_wrong_role_senders_never_fill_a_quorum(self, wire):
        ps0, ghost, w1 = wire("ps/0"), wire("ghost"), wire("worker/1")
        # against the parent commit these two frames satisfied the quorum:
        # a stranger and a worker counted as parameter servers in phase 3
        ghost.send("ps/0", TO_SERVER, 0, np.full(2, 1e9))
        w1.send("ps/0", TO_SERVER, 0, np.full(2, 1e9))
        assert wait_until(lambda: ps0.messages_suppressed == 2)
        with pytest.raises(QuorumTimeout, match=r"at step 0 \(got 0\)"):
            ps0.wait_quorum(TO_SERVER, 0, quorum=2, timeout=0.3)
        assert ps0.messages_suppressed == 2

    @pytest.mark.parametrize("kind, forger", [
        (TO_WORKER, "worker/1"), (GRADIENT, "ps/1")])
    def test_every_kind_checks_the_role(self, wire, kind, forger):
        recipient = "worker/0" if kind is TO_WORKER else "ps/0"
        target, bad = wire(recipient), wire(forger)
        bad.send(recipient, kind, 0, np.ones(1))
        assert wait_until(lambda: target.messages_suppressed == 1)
        with pytest.raises(QuorumTimeout, match=r"\(got 0\)"):
            target.wait_quorum(kind, 0, 1, timeout=0.0)

    def test_honest_senders_still_count(self, wire):
        ps0, ghost = wire("ps/0"), wire("ghost")
        ghost.send("ps/0", GRADIENT, 0, np.full(1, 1e9))
        for worker_id in WORKERS:
            wire(worker_id).send("ps/0", GRADIENT, 0, np.ones(1))
        payloads = ps0.wait_quorum(GRADIENT, 0, 3, timeout=5.0)
        assert all(payload[0] == 1.0 for payload in payloads)


class TestJitterDeterminism:
    """Delivery jitter must be reproducible under a fixed endpoint seed."""

    def _recorded_delays(self, wire, monkeypatch, seed, num_messages=20):
        recorded = []

        class ImmediateTimer:
            """Capture the sampled delay, then transmit synchronously."""

            def __init__(self, delay, function, args=()):
                recorded.append(float(delay))
                self._function = function
                self._args = args

            def start(self):
                self._function(*self._args)

        monkeypatch.setattr("repro.runtime.live.threading.Timer",
                            ImmediateTimer)
        ps0, w0 = wire("ps/0", jitter=0.01, seed=seed), wire("worker/0")
        for step in range(num_messages):
            ps0.send("worker/0", TO_WORKER, step, np.ones(2))
        # Jittered messages still arrive (quorum satisfiable per step).
        assert len(w0.wait_quorum(TO_WORKER, 0, 1, timeout=5.0)) == 1
        return recorded

    def test_same_seed_means_identical_delay_sequence(self, wire,
                                                      monkeypatch):
        first = self._recorded_delays(wire, monkeypatch, seed=123)
        second = self._recorded_delays(wire, monkeypatch, seed=123)
        assert first == second
        assert len(first) == 20
        assert all(0.0 <= delay <= 0.01 for delay in first)

    def test_different_seeds_sample_different_delays(self, wire,
                                                     monkeypatch):
        assert self._recorded_delays(wire, monkeypatch, seed=1) != \
            self._recorded_delays(wire, monkeypatch, seed=2)


# --------------------------------------------------------------------------- #
# The mailbox alone, against a model: any interleaving
# --------------------------------------------------------------------------- #
SENDERS = SERVERS + ["worker/0", "ghost"]  # the last two may not send models
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("deliver"), st.sampled_from(SENDERS),
                  st.integers(0, 2)),
        st.tuples(st.just("abandon"), st.just(""), st.integers(0, 2))),
    max_size=40)


@settings(max_examples=150, deadline=None)
@given(operations=OPERATIONS, data=st.data())
def test_quorum_is_first_payload_of_first_q_senders_in_sender_order(
        operations, data):
    endpoint = Endpoint("worker/0", WORKERS, SERVERS)
    model = {step: {} for step in range(3)}
    abandoned, rejected = set(), 0
    for serial, (action, sender, step) in enumerate(operations):
        if action == "abandon":
            endpoint.abandon_step(step)
            abandoned.add(step)
            model[step] = {}
            continue
        endpoint.deliver(sender, TO_WORKER.value, step,
                         np.full(1, float(serial)))
        if sender not in SERVERS:
            rejected += 1
        elif step not in abandoned:
            model[step].setdefault(sender, float(serial))
    assert endpoint.messages_suppressed == rejected
    for step, first_payloads in model.items():
        held = len(first_payloads)
        with pytest.raises(QuorumTimeout, match=rf"\(got {held}\)"):
            endpoint.wait_quorum(TO_WORKER, step, held + 1, timeout=0.0)
        if held:
            quorum = data.draw(st.integers(1, held))
            payloads = endpoint.wait_quorum(TO_WORKER, step, quorum,
                                            timeout=0.0)
            assert [payload[0] for payload in payloads] == \
                [first_payloads[sender]
                 for sender in sorted(first_payloads)[:quorum]]
