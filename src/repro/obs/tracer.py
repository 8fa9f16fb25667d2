"""Low-overhead structured trace recorder with a zero-perturbation guarantee.

The tracer records **spans** (named intervals timed with
:func:`time.perf_counter`), **events** (point-in-time facts with typed
attributes) and **counters** (monotonically accumulated integers/floats)
into a bounded in-memory ring buffer, exportable as JSON Lines.  Spans
have one writer, :func:`repro.obs.phase`, which times a protocol phase
once and hands the same duration to this buffer and to the
``repro_step_phase_seconds`` histogram; a tracer only stores them (and
takes already-built records from other tracers with :meth:`Tracer.extend`).

The hard invariant of this module — enforced by the tier-1 equivalence
tests — is **zero perturbation**: recording a trace must not change what
the traced computation computes.  Concretely the tracer

* never draws from any random generator (no ``np.random``/``random`` use),
* never reads or advances *simulated* clocks — only the process-local
  monotonic clocks ``time.perf_counter``/``time.monotonic``,
* never mutates the objects handed to it (attributes are stored as given).

Consequently sequential↔batched bit-identity and sequential↔threaded
loss-trajectory identity hold with tracing enabled, and a traced run's
:class:`~repro.obs.history.TrainingHistory` is equal to the untraced one.

The active tracer is a module-level singleton (default: a no-op
:class:`NullTracer`) accessed through :func:`get_tracer` and installed with
:func:`set_tracer` or the scoped :func:`use_tracer`.  :class:`NullTracer`
is the only off switch — a :class:`Tracer` always records — so an untraced
run pays only an attribute read, a truthiness check, and an early return
per hook.
"""

from __future__ import annotations

import gzip
import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, TextIO, Union

__all__ = [
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "read_jsonl",
]


@dataclass
class TraceEvent:
    """One record in a trace.

    Attributes
    ----------
    name:
        Dotted identifier, e.g. ``"seq.step.aggregate"`` or
        ``"campaign.cache_hit"``.
    kind:
        ``"span"`` (has a duration), ``"event"`` (instantaneous) or
        ``"counter"`` (accumulated value snapshot at export time).
    ts:
        Seconds since the owning tracer's creation (monotonic clock).
    dur:
        Span duration in seconds; ``None`` for events and counters.
    step:
        Training-step index the record belongs to, when applicable.
    node:
        Node identifier (``"server-0"``, ``"worker-3"``) when applicable.
    source:
        Originating process of a *merged* multi-source trace (the cluster
        runtime tags each node's forwarded records with its node id before
        folding them into one JSONL).  ``None`` for single-process traces.
    attrs:
        Small JSON-serialisable attribute mapping.
    """

    name: str
    kind: str = "event"
    ts: float = 0.0
    dur: Optional[float] = None
    step: Optional[int] = None
    node: Optional[str] = None
    source: Optional[str] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        payload = asdict(self)
        # Keep JSONL lines compact: drop empty optional fields.
        if payload["dur"] is None:
            del payload["dur"]
        if payload["step"] is None:
            del payload["step"]
        if payload["node"] is None:
            del payload["node"]
        if payload["source"] is None:
            del payload["source"]
        if not payload["attrs"]:
            del payload["attrs"]
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TraceEvent":
        return cls(name=payload["name"], kind=payload.get("kind", "event"),
                   ts=payload.get("ts", 0.0), dur=payload.get("dur"),
                   step=payload.get("step"), node=payload.get("node"),
                   source=payload.get("source"),
                   attrs=payload.get("attrs", {}))


class NullTracer:
    """No-op tracer installed by default.

    Every hook is a constant-time early return so uninstrumented runs pay
    (nearly) nothing; ``enabled`` is ``False`` so call sites can skip even
    argument construction for expensive records.
    """

    enabled = False
    record_decisions = False

    def event(self, name: str, *, step: Optional[int] = None,
              node: Optional[str] = None, **attrs: Any) -> None:
        return None

    def count(self, name: str, value: Union[int, float] = 1) -> None:
        return None

    def events(self) -> List[TraceEvent]:
        return []

    def counters(self) -> Dict[str, Union[int, float]]:
        return {}

    def summary(self) -> Dict[str, Any]:
        return {"spans": {}, "counters": {}, "events": 0, "dropped": 0}

    def export(self, destination: Union[str, TextIO],
               compress: Optional[bool] = None) -> int:
        return 0


class Tracer:
    """Bounded-ring-buffer trace recorder.

    Parameters
    ----------
    capacity:
        Maximum number of retained records; older records are discarded
        first (``dropped`` in :meth:`summary` counts the loss, so
        truncation is observable rather than silent).
    record_decisions:
        Opt-in gate for *expensive* records — per-step GAR decision
        provenance recomputes selection indices and honest-mean distances,
        so it is off unless explicitly requested (e.g. by ``repro --trace``).

    A tracer always records; to turn tracing off, install a
    :class:`NullTracer` (the default).
    """

    enabled = True

    def __init__(self, capacity: int = 100_000, *,
                 record_decisions: bool = False) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.record_decisions = record_decisions
        self._epoch = time.perf_counter()
        self._buffer: deque = deque(maxlen=capacity)
        self._counters: Dict[str, Union[int, float]] = {}
        self._emitted = 0
        # One lock serialises buffer appends and counter updates: the
        # threaded runtime emits from worker/server threads concurrently.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _append(self, event: TraceEvent) -> None:
        with self._lock:
            self._buffer.append(event)
            self._emitted += 1

    def event(self, name: str, *, step: Optional[int] = None,
              node: Optional[str] = None, **attrs: Any) -> None:
        """Record an instantaneous event."""
        self._append(TraceEvent(name=name, kind="event",
                                ts=time.perf_counter() - self._epoch,
                                step=step, node=node, attrs=attrs))

    def count(self, name: str, value: Union[int, float] = 1) -> None:
        """Accumulate ``value`` onto the named counter."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def extend(self, records: Iterable[TraceEvent]) -> None:
        """Append already-built records (e.g. from a per-scenario tracer).

        Timestamps are kept as-is — they are relative to the *source*
        tracer's epoch, which is fine for duration aggregation (the only
        cross-tracer use).
        """
        with self._lock:
            for record in records:
                self._buffer.append(record)
                self._emitted += 1

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    def events(self) -> List[TraceEvent]:
        """Snapshot of retained records, oldest first."""
        with self._lock:
            return list(self._buffer)

    def counters(self) -> Dict[str, Union[int, float]]:
        with self._lock:
            return dict(self._counters)

    @property
    def dropped(self) -> int:
        """Number of records lost to ring-buffer truncation."""
        with self._lock:
            return self._emitted - len(self._buffer)

    def summary(self) -> Dict[str, Any]:
        """Compact aggregate: per-span-name count/total/mean + counters.

        This is the form persisted next to :class:`~repro.campaign.store.
        ResultStore` entries, in node results and in crash reports —
        small, JSON-friendly, order-free.
        """
        spans: Dict[str, Dict[str, float]] = {}
        events = 0
        for record in self.events():
            if record.kind == "span" and record.dur is not None:
                bucket = spans.setdefault(record.name,
                                          {"count": 0, "total_s": 0.0})
                bucket["count"] += 1
                bucket["total_s"] += record.dur
            else:
                events += 1
        for bucket in spans.values():
            bucket["mean_s"] = bucket["total_s"] / bucket["count"]
        return {"spans": spans, "counters": self.counters(),
                "events": events, "dropped": self.dropped}

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def export(self, destination: Union[str, TextIO],
               compress: Optional[bool] = None) -> int:
        """Write retained records (plus counter snapshots) as JSON Lines.

        Returns the number of lines written.  Counters are appended as
        ``kind="counter"`` records with the accumulated value, so a JSONL
        file is self-contained.

        ``compress`` gzips the output (long cluster traces shrink ~20x);
        the default ``None`` infers it from a ``.gz`` path suffix.  It is
        an error to request compression for a text stream destination.
        """
        records = self.events()
        counters = self.counters()
        now = time.perf_counter() - self._epoch
        lines = [json.dumps(r.to_dict(), separators=(",", ":"))
                 for r in records]
        for name in sorted(counters):
            counter = TraceEvent(name=name, kind="counter", ts=now,
                                 attrs={"value": counters[name]})
            lines.append(json.dumps(counter.to_dict(), separators=(",", ":")))
        text = "\n".join(lines) + ("\n" if lines else "")
        if isinstance(destination, str):
            if compress is None:
                compress = destination.endswith(".gz")
            if compress:
                with gzip.open(destination, "wt", encoding="utf-8") as handle:
                    handle.write(text)
            else:
                with open(destination, "w", encoding="utf-8") as handle:
                    handle.write(text)
        else:
            if compress:
                raise ValueError(
                    "compress=True requires a path destination, not a stream")
            destination.write(text)
        return len(lines)


def read_jsonl(source: Union[str, TextIO]) -> List[TraceEvent]:
    """Parse a trace JSONL file back into :class:`TraceEvent` records.

    Paths ending in ``.gz`` (or starting with the gzip magic bytes) are
    decompressed transparently, so ``repro trace``/``repro report`` accept
    compressed exports unchanged.
    """
    if isinstance(source, str):
        with open(source, "rb") as handle:
            raw = handle.read()
        if raw[:2] == b"\x1f\x8b":
            raw = gzip.decompress(raw)
        text = raw.decode("utf-8")
    else:
        text = source.read()
    records = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            records.append(TraceEvent.from_dict(json.loads(line)))
    return records


# ---------------------------------------------------------------------- #
# Active-tracer management
# ---------------------------------------------------------------------- #
_NULL_TRACER = NullTracer()
_active: Union[Tracer, NullTracer] = _NULL_TRACER


def get_tracer() -> Union[Tracer, NullTracer]:
    """The currently active tracer (a shared :class:`NullTracer` by default)."""
    return _active


def set_tracer(tracer: Optional[Union[Tracer, NullTracer]]) -> None:
    """Install ``tracer`` as the active tracer (``None`` resets to no-op)."""
    global _active
    _active = tracer if tracer is not None else _NULL_TRACER


@contextmanager
def use_tracer(tracer: Union[Tracer, NullTracer]) -> Iterator[Union[Tracer, NullTracer]]:
    """Scoped :func:`set_tracer`: restores the previous tracer on exit."""
    global _active
    previous = _active
    _active = tracer
    try:
        yield tracer
    finally:
        _active = previous
