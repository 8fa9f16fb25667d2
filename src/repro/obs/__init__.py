"""Observability: structured tracing, training histories, logging.

This package answers "what happened during a run" at three granularities:

* :mod:`repro.obs.tracer` — spans/events/counters on the **real** clock
  (``time.perf_counter``), with a hard zero-perturbation guarantee so the
  cross-runtime equivalence invariants survive tracing;
* :mod:`repro.obs.telemetry` — live metrics (counters/gauges/histograms
  with label sets) under the same zero-perturbation contract, snapshot/
  merge across processes, Prometheus text exposition — and
  :func:`phase`, the one way a runtime times a protocol phase: one
  ``perf_counter`` pair written to the trace as a span *and* to the
  ``repro_step_phase_seconds`` histogram, so the two cannot disagree;
* :mod:`repro.obs.httpd` — serve the active registry over HTTP
  (``/metrics``, ``/healthz``, ``/status``); :class:`MetricsServer` is
  served lazily (PEP 562) so that importing the package — every cluster
  node does — does not load ``http.server``, ``email`` and ``ssl``;
* :mod:`repro.obs.crash` — flight recorder dumping trace ring + metrics
  snapshot to ``*.crash.json`` on failure or interruption;
* :mod:`repro.obs.history` — the per-step :class:`TrainingHistory` on the
  **simulated** clock;
* :mod:`repro.obs.logging` — structured logging config for the CLI.
"""

from repro.obs.crash import crash_report_path, write_crash_report
from repro.obs.history import StepRecord, TrainingHistory
from repro.obs.logging import configure_logging
from repro.obs.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    parse_prometheus_text,
    phase,
    set_registry,
    use_registry,
)
from repro.obs.tracer import (
    NullTracer,
    TraceEvent,
    Tracer,
    get_tracer,
    read_jsonl,
    set_tracer,
    use_tracer,
)

__all__ = [
    "StepRecord",
    "TrainingHistory",
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "read_jsonl",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
    "phase",
    "parse_prometheus_text",
    "MetricsServer",
    "write_crash_report",
    "crash_report_path",
    "configure_logging",
]


def __getattr__(name: str):
    if name == "MetricsServer":
        from repro.obs.httpd import MetricsServer

        return MetricsServer
    raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
