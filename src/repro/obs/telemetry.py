"""Live telemetry: metric primitives, cross-process merge, Prometheus text.

Where :mod:`repro.obs.tracer` answers "what happened" after a run, this
module answers "what is happening *right now*": thread-safe
:class:`Counter` / :class:`Gauge` / :class:`Histogram` primitives with
label sets, collected in a :class:`MetricsRegistry` that can snapshot
itself to JSON, merge snapshots shipped from other processes (the cluster
nodes forward theirs over a ``metrics`` frame), and render the standard
Prometheus text exposition format for the ``/metrics`` endpoint of
:mod:`repro.obs.httpd`.

The layer sits **on top of** the tracer, not inside it, and inherits the
same hard zero-perturbation contract (enforced by the tier-1 equivalence
suites with a live registry):

* it never draws from any random generator,
* it never reads or advances *simulated* clocks — durations come only
  from ``time.perf_counter`` readings,
* it never mutates the objects handed to it.

Where the two meet is :func:`phase`, the one emit every runtime times its
protocol phases with: one ``perf_counter`` pair becomes both the phase's
trace span and its ``repro_step_phase_seconds`` observation.

The active registry is a module-level singleton (default: a no-op
:class:`NullRegistry`) accessed through :func:`get_registry` and
installed with :func:`set_registry` or the scoped :func:`use_registry`,
mirroring the tracer's management exactly.  Instrumented code pays one
attribute read, a truthiness check and an early return per hook when
telemetry is off.
"""

from __future__ import annotations

import bisect
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.obs.tracer import NullTracer, TraceEvent, Tracer, get_tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "DEFAULT_BUCKETS",
    "get_registry",
    "set_registry",
    "use_registry",
    "phase",
    "parse_prometheus_text",
]

#: duration buckets (seconds) shared by every latency histogram — spanning
#: sub-millisecond kernel phases up to multi-minute scenario runs
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0)

#: ``(labelname, labelvalue)`` tuples sorted by name — the hashable series key
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _format_labels(key: LabelKey, extra: Optional[List[Tuple[str, str]]] = None
                   ) -> str:
    pairs = list(key) + list(extra or [])
    if not pairs:
        return ""
    inner = ",".join(f'{name}="{_escape_label_value(value)}"'
                     for name, value in pairs)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class Counter:
    """Monotonically increasing per-label-set totals.

    Not thread-safe on its own: all mutation goes through the owning
    registry's lock (one lock for the whole registry, like the tracer's).
    """

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.series: Dict[LabelKey, float] = {}

    def _inc(self, key: LabelKey, value: float) -> None:
        self.series[key] = self.series.get(key, 0.0) + value

    def value(self, **labels: Any) -> float:
        """Current total of one label set (0.0 when never incremented)."""
        return self.series.get(_label_key(labels), 0.0)

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "help": self.help,
                "series": [{"labels": dict(key), "value": value}
                           for key, value in sorted(self.series.items())]}

    def render(self, lines: List[str]) -> None:
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} counter")
        for key, value in sorted(self.series.items()):
            lines.append(f"{self.name}{_format_labels(key)} "
                         f"{_format_value(value)}")


class Gauge:
    """Last-written value per label set (plus add/subtract convenience)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.series: Dict[LabelKey, float] = {}

    def _set(self, key: LabelKey, value: float) -> None:
        self.series[key] = value

    def _add(self, key: LabelKey, value: float) -> None:
        self.series[key] = self.series.get(key, 0.0) + value

    def value(self, **labels: Any) -> Optional[float]:
        """Current value of one label set (``None`` when never set)."""
        return self.series.get(_label_key(labels))

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "help": self.help,
                "series": [{"labels": dict(key), "value": value}
                           for key, value in sorted(self.series.items())]}

    def render(self, lines: List[str]) -> None:
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} gauge")
        for key, value in sorted(self.series.items()):
            lines.append(f"{self.name}{_format_labels(key)} "
                         f"{_format_value(value)}")


class _HistogramSeries:
    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, num_buckets: int) -> None:
        # one slot per finite bound plus the +Inf overflow slot
        self.bucket_counts = [0] * (num_buckets + 1)
        self.sum = 0.0
        self.count = 0


class Histogram:
    """Bucketed value distribution per label set (Prometheus semantics:
    exposition is cumulative; storage is per-bucket so merges are adds)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("a histogram needs at least one bucket bound")
        self.series: Dict[LabelKey, _HistogramSeries] = {}

    def _series(self, key: LabelKey) -> _HistogramSeries:
        entry = self.series.get(key)
        if entry is None:
            entry = _HistogramSeries(len(self.buckets))
            self.series[key] = entry
        return entry

    def _observe(self, key: LabelKey, value: float) -> None:
        entry = self._series(key)
        entry.bucket_counts[bisect.bisect_left(self.buckets, value)] += 1
        entry.sum += value
        entry.count += 1

    def stats(self, **labels: Any) -> Optional[Dict[str, float]]:
        """``{"count", "sum", "mean"}`` of one label set, or ``None``."""
        entry = self.series.get(_label_key(labels))
        if entry is None or entry.count == 0:
            return None
        return {"count": float(entry.count), "sum": entry.sum,
                "mean": entry.sum / entry.count}

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "help": self.help,
                "buckets": list(self.buckets),
                "series": [{"labels": dict(key),
                            "counts": list(entry.bucket_counts),
                            "sum": entry.sum, "count": entry.count}
                           for key, entry in sorted(self.series.items())]}

    def render(self, lines: List[str]) -> None:
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} histogram")
        for key, entry in sorted(self.series.items()):
            cumulative = 0
            for bound, count in zip(self.buckets, entry.bucket_counts):
                cumulative += count
                labels = _format_labels(key, [("le", _format_value(bound))])
                lines.append(f"{self.name}_bucket{labels} {cumulative}")
            labels = _format_labels(key, [("le", "+Inf")])
            lines.append(f"{self.name}_bucket{labels} {entry.count}")
            lines.append(f"{self.name}_sum{_format_labels(key)} "
                         f"{_format_value(entry.sum)}")
            lines.append(f"{self.name}_count{_format_labels(key)} "
                         f"{entry.count}")


class NullRegistry:
    """No-op registry installed by default.

    Every hook is a constant-time early return, so untelemetered runs pay
    (nearly) nothing; ``enabled`` is ``False`` so call sites can skip even
    argument construction for expensive records.
    """

    enabled = False

    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        return None

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        return None

    def add_gauge(self, name: str, value: float, **labels: Any) -> None:
        return None

    def observe(self, name: str, value: float, **labels: Any) -> None:
        return None

    def snapshot(self) -> Dict[str, Any]:
        return {"metrics": {}}

    def merge(self, snapshot: Dict[str, Any],
              extra_labels: Optional[Dict[str, Any]] = None) -> None:
        return None

    def render_prometheus(self) -> str:
        return ""


class MetricsRegistry:
    """Thread-safe collection of named metrics with label sets.

    Metrics are created on first use — :meth:`inc` makes a
    :class:`Counter`, :meth:`set_gauge` / :meth:`add_gauge` a
    :class:`Gauge`, :meth:`observe` a :class:`Histogram` —
    with help text looked up in :data:`METRIC_HELP` (or registered
    explicitly with :meth:`describe`).  One lock serialises all mutation:
    the threaded runtime and the cluster supervisor's reader threads emit
    concurrently, exactly like the tracer's buffer appends.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Union[Counter, Gauge, Histogram]] = {}
        self._help: Dict[str, str] = dict(METRIC_HELP)
        self._created = time.perf_counter()

    # ------------------------------------------------------------------ #
    # Metric creation / lookup
    # ------------------------------------------------------------------ #
    def describe(self, name: str, help: str) -> None:
        """Register help text for ``name`` (before or after first use)."""
        with self._lock:
            self._help[name] = help
            metric = self._metrics.get(name)
            if metric is not None:
                metric.help = help

    def _get(self, name: str, cls, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help=self._help.get(name, ""), **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(f"metric '{name}' is a {metric.kind}, "
                            f"not a {cls.kind}")
        return metric

    def counter(self, name: str) -> Counter:
        with self._lock:
            return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            return self._get(name, Gauge)

    def histogram(self, name: str,
                  buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        with self._lock:
            return self._get(name, Histogram, buckets=buckets)

    def metrics(self) -> List[Union[Counter, Gauge, Histogram]]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    # ------------------------------------------------------------------ #
    # Hot-path recording (the instrumented call sites use these)
    # ------------------------------------------------------------------ #
    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        with self._lock:
            self._get(name, Counter)._inc(_label_key(labels), value)

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        with self._lock:
            self._get(name, Gauge)._set(_label_key(labels), value)

    def add_gauge(self, name: str, value: float, **labels: Any) -> None:
        with self._lock:
            self._get(name, Gauge)._add(_label_key(labels), value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        with self._lock:
            self._get(name, Histogram)._observe(_label_key(labels), value)

    # ------------------------------------------------------------------ #
    # Snapshot / merge (the cross-process APIs)
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        """JSON-serialisable state: ship across process boundaries, merge
        into another registry with :meth:`merge`, or archive as the final
        metrics snapshot of a run."""
        with self._lock:
            return {
                "uptime_seconds": time.perf_counter() - self._created,
                "metrics": {name: metric.snapshot()
                            for name, metric in sorted(self._metrics.items())},
            }

    def merge(self, snapshot: Dict[str, Any],
              extra_labels: Optional[Dict[str, Any]] = None) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and histogram buckets *add*; gauges take the incoming
        value (last write wins).  ``extra_labels`` are stamped onto every
        incoming series — the cluster supervisor merges each node's
        registry with ``{"node": node_id}`` so per-node series stay
        distinguishable after the fold.
        """
        extra = extra_labels or {}
        for name, payload in (snapshot.get("metrics") or {}).items():
            kind = payload.get("kind")
            with self._lock:
                if kind == "counter":
                    metric = self._get(name, Counter)
                    for entry in payload.get("series", []):
                        key = _label_key({**entry["labels"], **extra})
                        metric._inc(key, float(entry["value"]))
                elif kind == "gauge":
                    metric = self._get(name, Gauge)
                    for entry in payload.get("series", []):
                        key = _label_key({**entry["labels"], **extra})
                        metric._set(key, float(entry["value"]))
                elif kind == "histogram":
                    buckets = tuple(payload.get("buckets", DEFAULT_BUCKETS))
                    metric = self._get(name, Histogram, buckets=buckets)
                    if metric.buckets != buckets:
                        raise ValueError(
                            f"cannot merge histogram '{name}': bucket "
                            f"bounds differ")
                    for entry in payload.get("series", []):
                        key = _label_key({**entry["labels"], **extra})
                        series = metric._series(key)
                        for i, count in enumerate(entry["counts"]):
                            series.bucket_counts[i] += int(count)
                        series.sum += float(entry["sum"])
                        series.count += int(entry["count"])
                else:
                    raise ValueError(f"unknown metric kind '{kind}' "
                                     f"in snapshot entry '{name}'")

    # ------------------------------------------------------------------ #
    # Exposition
    # ------------------------------------------------------------------ #
    def render_prometheus(self) -> str:
        """The standard Prometheus text format (version 0.0.4)."""
        lines: List[str] = []
        for metric in self.metrics():
            metric.render(lines)
        return "\n".join(lines) + ("\n" if lines else "")


# --------------------------------------------------------------------------- #
# Help catalogue (shared by every registry; extend freely)
# --------------------------------------------------------------------------- #
METRIC_HELP: Dict[str, str] = {
    "repro_campaign_scenarios_total":
        "Scenario outcomes by terminal status (ran/cached/failed)",
    "repro_campaign_scenarios_pending":
        "Scenarios of the running campaign not yet finished",
    "repro_campaign_scenarios_running":
        "Scenario tasks currently executing (approximate under a pool)",
    "repro_campaign_cache_total":
        "Result-store lookups at campaign start, by hit/miss",
    "repro_campaign_queue_wait_seconds":
        "Time between campaign dispatch and a scenario's completion "
        "minus its execution time (upper bound under a busy pool)",
    "repro_campaign_scenario_seconds":
        "Wall-clock execution time of one scenario",
    "repro_batch_lane_chunk_seconds":
        "Wall-clock time of one batched replica-lane chunk, by backend",
    "repro_store_op_seconds": "ResultStore operation latency, by op",
    "repro_store_ops_total": "ResultStore operations, by op",
    "repro_store_entries": "Entries in the result store",
    "repro_store_index_rebuilds_total":
        "Sidecar index shards rebuilt from entry payloads",
    "repro_runtime_cache_total":
        "repro.runtime.run() store lookups, by result (hit/miss)",
    "repro_scheduler_jobs_total":
        "Scheduler campaign jobs reaching a terminal state (done/failed)",
    "repro_scheduler_jobs_pending":
        "Campaign jobs queued or running in the scheduler daemon",
    "repro_scheduler_scenarios_deduped_total":
        "Scenarios a submitted campaign already had in the store at "
        "submission time",
    "repro_step_phase_seconds":
        "Per-phase protocol step duration, by runtime and phase",
    "repro_gar_decisions_total":
        "GAR decisions recorded (requires decision records), by rule",
    "repro_gar_attackers_offered_total":
        "Known-attacker inputs offered to the GAR, by rule",
    "repro_gar_attackers_selected_total":
        "Known-attacker inputs admitted by the GAR, by rule",
    "repro_gar_attacker_acceptance":
        "Running attacker-acceptance rate of the GAR, by rule",
    "repro_cluster_node_up":
        "Cluster node liveness (1 = running/ready/done, 0 = dead)",
    "repro_cluster_node_incarnations":
        "Spawned incarnations of a cluster node (respawns + 1)",
    "repro_cluster_respawns_total": "Node respawns after scheduled crashes",
    "repro_cluster_probe_rtt_seconds": "Supervisor PING→PONG round trip",
    "repro_cluster_connects_total":
        "Data-plane connections a finished node opened (one per peer it "
        "sent to, plus one per reconnect after a peer's crash)",
    "repro_cluster_frames_total":
        "Protocol frames sent/received, by direction and kind",
    "repro_cluster_bytes_total":
        "Protocol bytes sent/received, by direction",
}


# --------------------------------------------------------------------------- #
# Active-registry management (mirrors repro.obs.tracer)
# --------------------------------------------------------------------------- #
_NULL_REGISTRY = NullRegistry()
_active: Union[MetricsRegistry, NullRegistry] = _NULL_REGISTRY


def get_registry() -> Union[MetricsRegistry, NullRegistry]:
    """The active registry (a shared :class:`NullRegistry` by default)."""
    return _active


def set_registry(registry: Optional[Union[MetricsRegistry, NullRegistry]]
                 ) -> None:
    """Install ``registry`` as the active one (``None`` resets to no-op)."""
    global _active
    _active = registry if registry is not None else _NULL_REGISTRY


@contextmanager
def use_registry(registry: Union[MetricsRegistry, NullRegistry]
                 ) -> Iterator[Union[MetricsRegistry, NullRegistry]]:
    """Scoped :func:`set_registry`: restores the previous registry on exit."""
    global _active
    previous = _active
    _active = registry
    try:
        yield registry
    finally:
        _active = previous


# --------------------------------------------------------------------------- #
# The one phase emit (a trace span and a histogram observation, one timing)
# --------------------------------------------------------------------------- #
class _Phase:
    """Context manager created by :func:`phase`; one per invocation."""

    __slots__ = ("_tracer", "_registry", "_name", "_runtime", "_step",
                 "_node", "_attrs", "_start")

    def __init__(self, tracer: Union[Tracer, NullTracer],
                 registry: Union[MetricsRegistry, NullRegistry], name: str,
                 runtime: str, step: Optional[int], node: Optional[str],
                 attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._registry = registry
        self._name = name
        self._runtime = runtime
        self._step = step
        self._node = node
        self._attrs = attrs

    def __enter__(self) -> None:
        self._start = time.perf_counter()

    def __exit__(self, *exc_info: object) -> bool:
        start = self._start
        duration = time.perf_counter() - start
        tracer = self._tracer
        if tracer.enabled:
            tracer._append(TraceEvent(
                name=self._name, kind="span", ts=start - tracer._epoch,
                dur=duration, step=self._step, node=self._node,
                attrs=self._attrs))
        if self._registry.enabled:
            self._registry.observe(
                "repro_step_phase_seconds", duration, runtime=self._runtime,
                phase=self._name.rpartition(".")[2])
        return False


_NULL_PHASE = nullcontext()


def phase(name: str, *, runtime: str, step: Optional[int] = None,
          node: Optional[str] = None, **attrs: Any):
    """Time one protocol phase: the one way a runtime reports a phase.

    One ``perf_counter`` pair is written to both sinks: a ``kind="span"``
    :class:`~repro.obs.tracer.TraceEvent` called ``name`` in the active
    tracer and one observation of
    ``repro_step_phase_seconds{runtime=runtime, phase=<last dotted
    segment of name>}`` in the active registry — so the span and the
    histogram cannot disagree.  With neither sink on, the result is a
    shared no-op context manager and the clock is not read.
    """
    tracer, registry = get_tracer(), get_registry()
    if not (tracer.enabled or registry.enabled):
        return _NULL_PHASE
    return _Phase(tracer, registry, name, runtime, step, node, attrs)


# --------------------------------------------------------------------------- #
# Exposition-format parsing (the monitor and the CI smoke read it back)
# --------------------------------------------------------------------------- #
def parse_prometheus_text(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse Prometheus text exposition into ``{family: {...}}``.

    Strict enough to *validate* what :meth:`MetricsRegistry.
    render_prometheus` (or any conforming exporter) produced — unknown
    line shapes raise ``ValueError`` — and structured enough for the
    ``repro monitor`` dashboard: each family carries its ``type``,
    ``help`` and a list of ``{"name", "labels", "value"}`` samples
    (histogram ``_bucket``/``_sum``/``_count`` samples fold into their
    base family).
    """
    families: Dict[str, Dict[str, Any]] = {}

    def family_for(sample_name: str) -> Dict[str, Any]:
        base = sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            trimmed = sample_name[: -len(suffix)] \
                if sample_name.endswith(suffix) else None
            if trimmed and families.get(trimmed, {}).get("type") == "histogram":
                base = trimmed
                break
        return families.setdefault(base, {"name": base, "type": "untyped",
                                          "help": "", "samples": []})

    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                family = families.setdefault(
                    parts[2], {"name": parts[2], "type": "untyped",
                               "help": "", "samples": []})
                if parts[1] == "TYPE":
                    family["type"] = parts[3] if len(parts) > 3 else "untyped"
                else:
                    family["help"] = parts[3] if len(parts) > 3 else ""
            continue
        name, labels, value = _parse_sample(line, line_number)
        family_for(name)["samples"].append(
            {"name": name, "labels": labels, "value": value})
    return families


def _parse_sample(line: str, line_number: int
                  ) -> Tuple[str, Dict[str, str], float]:
    rest = line
    brace = rest.find("{")
    labels: Dict[str, str] = {}
    if brace >= 0:
        name = rest[:brace]
        close = rest.rfind("}")
        if close < brace:
            raise ValueError(f"line {line_number}: unterminated label set")
        labels = _parse_labels(rest[brace + 1: close], line_number)
        rest = rest[close + 1:].strip()
    else:
        parts = rest.split(None, 1)
        if len(parts) != 2:
            raise ValueError(f"line {line_number}: expected 'name value'")
        name, rest = parts
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ValueError(f"line {line_number}: invalid metric name '{name}'")
    value_text = rest.split()[0] if rest.split() else ""
    try:
        value = float(value_text.replace("+Inf", "inf")
                      .replace("-Inf", "-inf"))
    except ValueError as exc:
        raise ValueError(f"line {line_number}: invalid sample value "
                         f"'{value_text}'") from exc
    return name, labels, value


def _parse_labels(body: str, line_number: int) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    i = 0
    while i < len(body):
        if body[i] == ",":
            i += 1
            continue
        eq = body.find("=", i)
        if eq < 0:
            raise ValueError(f"line {line_number}: malformed label pair")
        name = body[i:eq].strip()
        if body[eq + 1: eq + 2] != '"':
            raise ValueError(f"line {line_number}: unquoted label value")
        j = eq + 2
        chars: List[str] = []
        while j < len(body):
            c = body[j]
            if c == "\\" and j + 1 < len(body):
                escaped = body[j + 1]
                chars.append({"n": "\n", "\\": "\\", '"': '"'}
                             .get(escaped, escaped))
                j += 2
                continue
            if c == '"':
                break
            chars.append(c)
            j += 1
        else:
            raise ValueError(f"line {line_number}: unterminated label value")
        labels[name] = "".join(chars)
        i = j + 1
    return labels
