"""Bench-side spans and the small statistics every bench file shares.

The spans here wrap *public* calls from outside ``src/`` (store operations,
``run_campaign``, ``repro.run``, HTTP POST/poll); the per-step phase spans
come from the program's own PR-6 tracer.  Spans stay in memory and are
written out when the run ends.  A span's self time is its duration minus
the part its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import statistics
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence


#: the five protocol phases, as the program's own spans name them
PHASES = ("broadcast", "compute", "gather", "aggregate", "apply")


class Spans:
    """In-memory span recorder: name, start, end, parent, one id per unit."""

    enabled = True

    def __init__(self) -> None:
        self.records: List[Dict] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str, unit: Optional[str] = None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        record = {"id": next(self._ids), "name": name,
                  "parent": parent["id"] if parent else None,
                  "unit": unit if unit is not None
                  else (parent["unit"] if parent else None),
                  "start": time.perf_counter(), "end": None}
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.records.append(record)

    def self_times(self) -> Dict[str, float]:
        """Per span name: summed duration minus the children's durations."""
        child_total: Dict[int, float] = {}
        for record in self.records:
            if record["parent"] is not None:
                child_total[record["parent"]] = (
                    child_total.get(record["parent"], 0.0)
                    + record["end"] - record["start"])
        totals: Dict[str, float] = {}
        for record in self.records:
            own = (record["end"] - record["start"]
                   - child_total.get(record["id"], 0.0))
            totals[record["name"]] = totals.get(record["name"], 0.0) + own
        return totals

    def write_jsonl(self, path: str, extra: Iterable[Dict] = ()) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in itertools.chain(self.records, extra):
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")


class NullSpans:
    """Untraced runs: every span is a shared no-op context."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str, unit: Optional[str] = None):
        return self._null


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(values, n=4)`` gives
    them (the rule the benchmark contract states), plus the sample count."""
    values = list(values)
    if len(values) < 2:
        only = float(values[0])
        return {"n": len(values), "p25": only, "p50": only, "p75": only}
    p25, p50, p75 = statistics.quantiles(values, n=4)
    return {"n": len(values), "p25": p25, "p50": p50, "p75": p75}


def tail(values: Sequence[float]) -> Optional[Dict[str, float]]:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    if len(ordered) < 20:
        return None
    index = len(ordered) - 11
    return {"percentile": round(100.0 * (index + 1) / len(ordered), 1),
            "value": ordered[index]}


def _interpreter_slice() -> None:
    total = 0
    for i in range(100_000):
        total += i * i


def _objects_slice() -> None:
    rows = {str(i): [i, i + 0.5, str(i)] for i in range(2500)}
    json.loads(json.dumps(rows))


@functools.lru_cache(maxsize=None)
def _matrix():
    import numpy  # not at module level: ``run.py`` times ``import repro``

    return numpy.random.default_rng(0).normal(size=(25, 8192))


def _arrays_slice() -> None:
    matrix = _matrix()
    for _ in range(3):
        # what a coordinate-wise median does, and a centring
        matrix.copy().partition(12, axis=0)
        matrix - matrix.mean(axis=0)


#: the three kinds of work the program does, and the seconds one slice of
#: each takes on the reference host (this box when its neighbours are quiet)
SLICES = ((_interpreter_slice, 5.8e-3), (_objects_slice, 3.7e-3),
          (_arrays_slice, 5.0e-3))


def spin(repeats: int = 5) -> float:
    """How slow the host is right now: for each kind of slice the median
    time of ``repeats`` runs over the reference host's time, and the
    geometric mean of the three.

    The host this benchmark runs on (a shared 2-vCPU guest) slows down by a
    factor of 1.3-1.8 for minutes at a time, which no statistic inside a
    5-second run can remove.  The runner spins between passes and divides
    each pass's wall time by the slowdown around it (README, "Host speed").
    """
    slowdown = 1.0
    for function, reference in SLICES:
        samples = []
        for _ in range(repeats):
            mark = time.perf_counter()
            function()
            samples.append(time.perf_counter() - mark)
        slowdown *= statistics.median(samples) / reference
    return slowdown ** (1.0 / len(SLICES))


def timed(function, min_samples: int = 15, max_seconds: float = 0.3,
          floor_samples: int = 3) -> List[float]:
    """Wall time of repeated calls: ``min_samples`` of them, cut short at
    ``max_seconds`` once ``floor_samples`` exist."""
    samples: List[float] = []
    started = time.perf_counter()
    while len(samples) < min_samples:
        mark = time.perf_counter()
        function()
        now = time.perf_counter()
        samples.append(now - mark)
        if len(samples) >= floor_samples and now - started > max_seconds:
            break
    return samples
