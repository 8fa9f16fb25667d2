"""Flight recorder: dump trace ring + metrics snapshot on failure.

When a scenario fails or the CLI takes SIGINT/SIGTERM, the last window
of observability is exactly what explains the death — so instead of
losing it, :func:`write_crash_report` writes one ``*.crash.json`` with

* the active tracer's retained ring (events + counters + summary),
* the active telemetry registry's final snapshot,
* a small context block from the caller (reason, scenario name, exit
  code, whatever the call site knows).

The report lands in the explicit ``crash_dir`` when one is given (the
CLI's global ``--crash-dir``), else *beside the store* when a result
store is in play (``<store>/<name>.crash.json``), else next to the
trace file, else in the system temp directory
(:func:`tempfile.gettempdir`) — never in whatever directory the process
happened to start in; the CLI prints the path it wrote.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Any, Dict, Optional, Union

from repro.obs.telemetry import MetricsRegistry, NullRegistry, get_registry
from repro.obs.tracer import NullTracer, Tracer, get_tracer

__all__ = ["write_crash_report", "crash_report_path"]


def crash_report_path(name: str, *, store_root: Optional[str] = None,
                      trace_path: Optional[str] = None,
                      crash_dir: Optional[str] = None) -> str:
    """Where a crash report for ``name`` should land (see module doc).

    An explicit ``crash_dir`` (the CLI's global ``--crash-dir``) wins over
    every inferred location.
    """
    safe = "".join(c if c.isalnum() or c in "-_." else "-" for c in name)
    filename = f"{safe}.crash.json"
    if crash_dir:
        return os.path.join(crash_dir, filename)
    if store_root:
        return os.path.join(store_root, filename)
    if trace_path:
        return os.path.join(os.path.dirname(os.path.abspath(trace_path)),
                            filename)
    return os.path.join(tempfile.gettempdir(), filename)


def write_crash_report(name: str, reason: str, *,
                       store_root: Optional[str] = None,
                       trace_path: Optional[str] = None,
                       crash_dir: Optional[str] = None,
                       tracer: Optional[Union[Tracer, NullTracer]] = None,
                       registry: Optional[Union[MetricsRegistry,
                                                NullRegistry]] = None,
                       context: Optional[Dict[str, Any]] = None) -> str:
    """Dump the flight-recorder state and return the report's path.

    Never raises on serialisation trouble with individual attributes —
    a crash dump that itself crashes helps nobody — but filesystem errors
    (unwritable directory) do propagate to the caller.
    """
    tracer = tracer if tracer is not None else get_tracer()
    registry = registry if registry is not None else get_registry()
    report: Dict[str, Any] = {
        "kind": "repro.crash_report",
        "name": name,
        "reason": reason,
        "wall_time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "context": context or {},
        "trace": {
            "enabled": bool(tracer.enabled),
            "events": [e.to_dict() for e in tracer.events()],
            "counters": tracer.counters(),
            "summary": tracer.summary(),
        },
        "metrics": registry.snapshot(),
    }
    path = crash_report_path(name, store_root=store_root,
                             trace_path=trace_path, crash_dir=crash_dir)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    return path
