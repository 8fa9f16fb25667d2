"""Wire-format tests for the cluster runtime's frame protocol."""

from __future__ import annotations

import json
import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.message import MessageKind
from repro.runtime.cluster.protocol import (
    CONTROL_KINDS,
    DATA_KINDS,
    MAX_FRAME_BYTES,
    Frame,
    FrameError,
    decode_report,
    recv_frame,
    send_frame,
)


def roundtrip(frame: Frame) -> Frame:
    """Encode a frame, push it through a socketpair, decode it back."""
    left, right = socket.socketpair()
    try:
        sender = threading.Thread(target=send_frame, args=(left, frame))
        sender.start()
        received = recv_frame(right)
        sender.join()
    finally:
        left.close()
        right.close()
    assert received is not None
    return received


class TestFrame:
    def test_payload_roundtrip(self):
        vector = np.arange(32, dtype=np.float64) / 7.0
        frame = roundtrip(Frame(kind="gradient_to_server", sender="worker/0",
                                recipient="ps/1", step=3, payload=vector,
                                meta={"loss": 0.5}))
        assert frame.kind == "gradient_to_server"
        assert frame.sender == "worker/0"
        assert frame.recipient == "ps/1"
        assert frame.step == 3
        assert frame.meta == {"loss": 0.5}
        np.testing.assert_array_equal(frame.payload, vector)

    def test_control_frame_without_payload(self):
        frame = roundtrip(Frame(kind="ping", sender="supervisor",
                                recipient="worker/2"))
        assert frame.kind == "ping"
        assert frame.payload is None

    def test_payload_coerced_to_contiguous_float64(self):
        frame = Frame(kind="done", payload=[1, 2, 3])
        assert frame.payload.dtype == np.float64
        assert frame.payload.flags["C_CONTIGUOUS"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(FrameError, match="unknown frame kind"):
            Frame(kind="teleport")

    def test_data_kinds_shared_with_message_vocabulary(self):
        # the cluster runtime speaks the same protocol vocabulary as the
        # simulator / threaded runtimes — MessageKind values verbatim
        assert DATA_KINDS == frozenset(kind.value for kind in MessageKind)
        assert not DATA_KINDS & CONTROL_KINDS

    def test_no_kind_reports_a_step_to_the_supervisor(self):
        # per-step losses, watermarks, snapshots, traces and registry
        # snapshots ride a node's last frame (``done`` / ``crashed``); they
        # are no frame kinds of their own
        for kind in ("loss", "step_time", "snapshot", "trace", "metrics"):
            assert kind not in CONTROL_KINDS
            with pytest.raises(FrameError, match="unknown frame kind"):
                Frame(kind=kind)

    def test_oversized_frame_rejected_on_encode(self, monkeypatch):
        import repro.runtime.cluster.protocol as protocol

        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64)
        with pytest.raises(FrameError, match="exceeds"):
            Frame(kind="model_to_worker", payload=np.ones(32)).encode()


class TestDecodeReport:
    """The one check a node report passes on its way into the supervisor."""

    def test_wire_roundtrip_of_a_server_report(self):
        parameters = np.arange(5, dtype=np.float64) / 3.0
        frame = roundtrip(Frame(
            kind="done", sender="ps/0", recipient="supervisor",
            payload=parameters, meta={
                "losses": [], "step_times": [(0, 0.25), (1, 0.5)],
                "trace": {"events": []}, "connects": {"worker/0": 1}}))
        report = decode_report(frame, num_steps=2, dimension=5)
        assert report["step_times"] == [(0, 0.25), (1, 0.5)]
        assert report["losses"] == [] and report["metrics"] is None
        assert report["trace"] == {"events": []}
        np.testing.assert_array_equal(report["parameters"], parameters)

    def test_worker_report_without_parameters(self):
        frame = Frame(kind="crashed", sender="worker/3",
                      meta={"losses": [[0, 2.5]]})
        report = decode_report(frame, num_steps=4, dimension=None)
        assert report["losses"] == [(0, 2.5)] and report["parameters"] is None

    @pytest.mark.parametrize("meta, payload, complaint", [
        ({"losses": [["1", 0.5]]}, None, "'losses' holds"),
        ({"losses": [[True, 0.5]]}, None, "'losses' holds"),
        ({"losses": [[1.0, 0.5]]}, None, "'losses' holds"),
        ({"losses": [[-1, 0.5]]}, None, "'losses' holds"),
        ({"losses": [[4, 0.5]]}, None, "'losses' holds"),
        ({"losses": [[0, float("nan")]]}, None, "'losses' holds"),
        ({"losses": [[0, float("inf")]]}, None, "'losses' holds"),
        ({"losses": [[0, 1]]}, None, "'losses' holds"),
        ({"losses": [[0, 0.5, 1]]}, None, "'losses' holds"),
        ({"losses": {"0": 0.5}}, None, "'losses' is"),
        ({"step_times": [[0, "0.5"]]}, None, "'step_times' holds"),
        ({"step_times": [0.5]}, None, "'step_times' holds"),
        ({"trace": ["span"]}, None, "'trace' is not a mapping"),
        ({"metrics": 7}, None, "'metrics' is not a mapping"),
        ({}, np.zeros(3), "3 floats where None belong"),
    ])
    def test_malformed_worker_reports_raise(self, meta, payload, complaint):
        frame = Frame(kind="done", sender="worker/0", payload=payload,
                      meta=meta)
        with pytest.raises(FrameError, match=complaint):
            decode_report(frame, num_steps=4, dimension=None)

    @pytest.mark.parametrize("payload", [None, np.zeros(4), np.zeros(6)])
    def test_server_parameters_must_have_the_model_size(self, payload):
        frame = Frame(kind="done", sender="ps/1", payload=payload)
        with pytest.raises(FrameError, match="where 5 belong"):
            decode_report(frame, num_steps=4, dimension=5)


class TestRecvFrame:
    def test_clean_eof_between_frames_returns_none(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert recv_frame(right) is None
        finally:
            right.close()

    def test_truncation_inside_header_raises(self):
        left, right = socket.socketpair()
        try:
            encoded = Frame(kind="pong", sender="worker/0").encode()
            left.sendall(encoded[:6])  # length prefix + 2 header bytes
            left.close()
            with pytest.raises(FrameError, match="closed"):
                recv_frame(right)
        finally:
            right.close()

    def test_truncation_inside_payload_raises(self):
        left, right = socket.socketpair()
        try:
            encoded = Frame(kind="crashed", payload=np.ones(16)).encode()
            left.sendall(encoded[:-8])  # drop the last float64
            left.close()
            with pytest.raises(FrameError, match="closed"):
                recv_frame(right)
        finally:
            right.close()

    def test_absurd_header_length_rejected_without_allocation(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack("!I", MAX_FRAME_BYTES + 1))
            left.close()
            with pytest.raises(FrameError, match="exceeds"):
                recv_frame(right)
        finally:
            right.close()

    def test_misaligned_payload_rejected(self):
        header = b'{"kind":"done","sender":"","recipient":"","step":0,"meta":{}}'
        with pytest.raises(FrameError, match="whole float64"):
            Frame.decode(header, b"\x00" * 7)

    @pytest.mark.parametrize("header", [
        b"\xff\xfe not json",
        b'{"kind":"ping","step":Infinity}',
        b'{"kind":"ping","step":NaN}',
        b'{"kind":"ping","step":"7"}',
        b'{"kind":"ping","step":true}',
        b'{"kind":"ping","step":7.0}',
        b'{"kind":"ping","meta":5}',
        b'{"kind":"ping","meta":null}',
        b'{"kind":"ping","sender":[1]}',
        b'{"kind":"ping","recipient":2}',
        b'{"kind":["ping"]}',
        b'{"step":0}',
        b'["ping"]',
        b"7",
        b"[" * 100_000,
    ])
    def test_undecodable_header_rejected(self, header):
        with pytest.raises(FrameError, match="undecodable|malformed|kind"):
            Frame.decode(header, b"")

    @settings(deadline=None)
    @given(header=st.one_of(
        st.binary(max_size=64),
        st.dictionaries(
            st.sampled_from(["kind", "sender", "recipient", "step", "meta"]),
            st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                      st.text(max_size=8), st.sampled_from(["ping", "done"]),
                      st.lists(st.integers(), max_size=2),
                      st.dictionaries(st.text(max_size=4), st.integers(),
                                      max_size=2)))
        .map(lambda fields: json.dumps(fields).encode("utf-8"))),
        payload=st.binary(max_size=32))
    def test_decode_returns_a_well_typed_frame_or_raises_frame_error(
            self, header, payload):
        try:
            frame = Frame.decode(header, payload)
        except FrameError:
            return
        assert all(isinstance(value, str) for value in
                   (frame.kind, frame.sender, frame.recipient))
        assert type(frame.step) is int and isinstance(frame.meta, dict)
        assert frame.payload is None or frame.payload.dtype == np.float64
