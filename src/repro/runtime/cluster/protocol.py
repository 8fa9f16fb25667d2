"""Length-prefixed binary frame protocol of the process cluster runtime.

One :class:`Frame` is one unit of communication between cluster processes —
a protocol payload (model vector, gradient), a lifecycle/control message
(READY, START, PING), or a node's report travelling back to the
supervisor.  The wire layout is deliberately trivial::

    [4 bytes  big-endian]  header length H
    [H bytes]              header JSON (UTF-8)
    [8 bytes  big-endian]  payload byte length P  (0 = no payload)
    [P bytes]              raw float64 vector (C order)

The header carries ``kind``/``sender``/``recipient``/``step`` plus a small
JSON ``meta`` mapping; the payload is reserved for the numeric vectors so
they cross the socket without JSON encoding.  Data-plane kinds reuse the
:class:`repro.network.message.MessageKind` values verbatim, so the cluster
runtime speaks the same protocol vocabulary as the simulator and the
threaded runtime.
"""

from __future__ import annotations

import json
import math
import socket
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.network.message import MessageKind
from repro.obs.telemetry import get_registry

__all__ = [
    "CONTROL_KINDS",
    "DATA_KINDS",
    "Frame",
    "FrameError",
    "MAX_FRAME_BYTES",
    "decode_report",
    "recv_frame",
    "send_frame",
]

#: hard ceiling on one frame (header + payload); a malformed length prefix
#: must not make a reader allocate gigabytes
MAX_FRAME_BYTES = 256 * 1024 * 1024

_HEADER_LEN = struct.Struct("!I")
_PAYLOAD_LEN = struct.Struct("!Q")

#: protocol payloads — the same vocabulary the other runtimes use
DATA_KINDS = frozenset(kind.value for kind in MessageKind)

#: lifecycle frames (node ⇄ supervisor, plus OBSERVE on the data plane:
#: honest gradients copied to the adversary's controlled nodes).  Nothing
#: here is sent per step to the supervisor: a node's report — its per-step
#: losses and wall-clock watermarks, a server's parameters as the payload,
#: its trace and registry snapshot when those are on — rides its last frame,
#: ``done`` or ``crashed`` (:func:`decode_report` reads it back).
CONTROL_KINDS = frozenset({
    "ready",      # node → supervisor: listener bound, address in meta
    "start",      # supervisor → node: full address map, begin the run
    "ping",       # supervisor → node: health probe
    "pong",       # node → supervisor: probe reply
    "crashed",    # node → supervisor: fault schedule says I crash now
                  # (the report of this incarnation)
    "observe",    # honest worker → Byzantine worker: gradient copy
    "done",       # node → supervisor: run finished (its report)
    "error",      # node → supervisor: unrecoverable node failure
    "shutdown",   # supervisor → node: exit cleanly
})


class FrameError(RuntimeError):
    """A frame violated the wire format (bad length, bad kind, truncation)."""


@dataclass
class Frame:
    """One decoded protocol frame."""

    kind: str
    sender: str = ""
    recipient: str = ""
    step: int = -1
    payload: Optional[np.ndarray] = None
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in DATA_KINDS and self.kind not in CONTROL_KINDS:
            raise FrameError(f"unknown frame kind '{self.kind}'")
        if self.payload is not None:
            self.payload = np.ascontiguousarray(self.payload,
                                                dtype=np.float64)

    # ------------------------------------------------------------------ #
    def encode(self) -> bytes:
        """Serialise to the length-prefixed wire form."""
        header = json.dumps(
            {"kind": self.kind, "sender": self.sender,
             "recipient": self.recipient, "step": self.step,
             "meta": self.meta},
            separators=(",", ":")).encode("utf-8")
        payload = b"" if self.payload is None else self.payload.tobytes()
        total = len(header) + len(payload)
        if total > MAX_FRAME_BYTES:
            raise FrameError(f"frame of {total} bytes exceeds the "
                             f"{MAX_FRAME_BYTES}-byte limit")
        return (_HEADER_LEN.pack(len(header)) + header
                + _PAYLOAD_LEN.pack(len(payload)) + payload)

    @classmethod
    def decode(cls, header: bytes, payload: bytes) -> "Frame":
        """``FrameError`` unless the header's fields have their defaults' types below."""
        try:
            fields = json.loads(header.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # incl. bad UTF-8
            raise FrameError(f"undecodable frame header: {exc}") from exc
        if not isinstance(fields, dict):
            raise FrameError(f"malformed frame header: {header[:80]!r}")
        values = {"kind": "", "sender": "", "recipient": "", "step": -1, "meta": {}}
        for name, default in list(values.items()):
            value = values[name] = fields.get(name, default)
            if type(value) is not type(default):  # exact: no bool step
                raise FrameError(f"malformed frame header: '{name}' is {value!r}")
        vector = None
        if payload:
            if len(payload) % 8:
                raise FrameError(f"payload of {len(payload)} bytes is not "
                                 f"a whole float64 vector")
            vector = np.frombuffer(payload, dtype=np.float64).copy()
        return cls(payload=vector, **values)


def decode_report(frame: Frame, num_steps: int,
                  dimension: Optional[int]) -> Dict[str, Any]:
    """The node report a ``done`` or ``crashed`` frame carries, checked.

    ``losses`` and ``step_times`` are lists of ``[step, value]`` pairs with
    an int step in ``[0, num_steps)`` and a finite float value.  A server's
    ``parameters`` are the frame's payload, ``dimension`` floats long; a
    worker (``dimension`` is ``None``) sends none.  ``trace`` and
    ``metrics`` are mappings or absent.  Anything else is a
    :class:`FrameError`.
    """
    meta = frame.meta
    report: Dict[str, Any] = {}
    for key in ("losses", "step_times"):
        pairs = meta.get(key, [])
        if not isinstance(pairs, list):
            raise FrameError(f"report '{key}' is {pairs!r}, not a list")
        for pair in pairs:
            if not (isinstance(pair, list) and len(pair) == 2
                    and type(pair[0]) is int and 0 <= pair[0] < num_steps
                    and type(pair[1]) is float and math.isfinite(pair[1])):
                raise FrameError(f"report '{key}' holds {pair!r}, not a "
                                 f"[step < {num_steps}, finite float] pair")
        report[key] = [tuple(pair) for pair in pairs]
    for key in ("trace", "metrics"):
        report[key] = meta.get(key)
        if not isinstance(report[key], (dict, type(None))):
            raise FrameError(f"report '{key}' is not a mapping")
    size = None if frame.payload is None else frame.payload.size
    if size != dimension:
        raise FrameError(f"report parameters: {size} floats where "
                         f"{dimension} belong")
    report["parameters"] = frame.payload
    return report


# --------------------------------------------------------------------------- #
# Blocking socket I/O
# --------------------------------------------------------------------------- #
def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; ``None`` on a clean EOF at a boundary."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == count and not chunks:
                return None  # peer closed between frames — normal shutdown
            raise FrameError(f"connection closed {remaining} byte(s) short "
                             f"of a complete frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, frame: Frame) -> None:
    """Write one frame to a connected socket."""
    wire = frame.encode()
    registry = get_registry()
    if registry.enabled:
        registry.inc("repro_cluster_frames_total",
                     direction="out", kind=frame.kind)
        registry.inc("repro_cluster_bytes_total", len(wire), direction="out")
    sock.sendall(wire)


def recv_frame(sock: socket.socket) -> Optional[Frame]:
    """Read one frame from a connected socket; ``None`` on clean EOF."""
    prefix = _recv_exact(sock, _HEADER_LEN.size)
    if prefix is None:
        return None
    (header_len,) = _HEADER_LEN.unpack(prefix)
    if header_len > MAX_FRAME_BYTES:
        raise FrameError(f"header length {header_len} exceeds the frame limit")
    header = _recv_exact(sock, header_len)
    if header is None:
        raise FrameError("connection closed inside a frame header")
    prefix = _recv_exact(sock, _PAYLOAD_LEN.size)
    if prefix is None:
        raise FrameError("connection closed before the payload length")
    (payload_len,) = _PAYLOAD_LEN.unpack(prefix)
    if header_len + payload_len > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {header_len + payload_len} bytes "
                         f"exceeds the {MAX_FRAME_BYTES}-byte limit")
    payload = _recv_exact(sock, payload_len) if payload_len else b""
    if payload is None:
        raise FrameError("connection closed inside a frame payload")
    frame = Frame.decode(header, payload)
    registry = get_registry()
    if registry.enabled:
        wire_len = (_HEADER_LEN.size + header_len
                    + _PAYLOAD_LEN.size + payload_len)
        registry.inc("repro_cluster_frames_total",
                     direction="in", kind=frame.kind)
        registry.inc("repro_cluster_bytes_total", wire_len, direction="in")
    return frame
