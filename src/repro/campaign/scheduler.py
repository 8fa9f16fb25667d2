"""Campaign scheduler daemon: the store as a long-running service.

``repro serve`` turns the batch pipeline into a resident process::

    repro serve --store results/ --port 8642 --processes 4

Clients submit :class:`~repro.campaign.spec.CampaignSpec` documents over
local HTTP/JSON (``sweep --submit URL`` is one such client) and poll for
progress; the daemon executes jobs one at a time through the exact same
:func:`~repro.campaign.engine.run_campaign` path the CLI uses — store
dedupe, seed batching, lane sharding, per-scenario failure isolation —
so a submitted campaign behaves bit-for-bit like a local ``sweep``.

Endpoints (mounted on the :class:`~repro.obs.httpd.MetricsServer`
listener, next to ``/metrics`` / ``/healthz`` / ``/status``):

* ``POST /campaigns`` — body is a campaign JSON document (optionally
  ``{"campaign": {...}, "options": {"on_invalid": "skip"}}``); replies
  ``202`` with the job record, including how many scenarios the store
  already held (``cached_at_submit``: one ``contains`` per scenario — the
  dedupe happens *before* any work is queued as executable).
* ``GET /campaigns`` — every job record, newest first.
* ``GET /campaigns/<id>`` — one job record.
* ``GET /results?gradient_rule=median&status=ran`` — summary rows from
  the store index (same filter grammar as :meth:`ResultStore.query`;
  values are parsed as JSON, falling back to the raw string).

The server binds ``127.0.0.1`` only: this is an operator-local daemon,
not an internet service — no auth, no TLS, by design.
"""

from __future__ import annotations

import itertools
import json
import queue
import threading
import time
import urllib.parse
from typing import Any, Dict, List, Optional, Tuple

from repro.campaign.engine import run_campaign
from repro.campaign.spec import CampaignSpec, ScenarioSpec
from repro.campaign.store import ResultStore
from repro.obs.telemetry import get_registry

__all__ = ["CampaignScheduler"]

Reply = Tuple[int, str, bytes]

_JSON = "application/json; charset=utf-8"


def _json_reply(code: int, document: Any) -> Reply:
    body = json.dumps(document, indent=2, sort_keys=True).encode("utf-8")
    return code, _JSON, body


class CampaignScheduler:
    """Accept campaigns, dedupe against the store, run them.

    One worker thread drains the job queue so jobs execute strictly in
    submission order; within a job, ``processes``/``lanes`` decide the
    parallelism exactly as they do for ``repro sweep``.
    """

    #: queue poll interval — bounds how long stop() waits on an idle queue
    _POLL_SECONDS = 0.2

    def __init__(self, store: ResultStore, *,
                 processes: Optional[int] = None,
                 batch_seeds: bool = True,
                 lanes: Optional[int] = None) -> None:
        self.store = store
        self.processes = processes
        self.batch_seeds = batch_seeds
        self.lanes = lanes
        self._jobs: Dict[str, Dict[str, Any]] = {}
        self._order: List[str] = []
        self._queue: "queue.Queue[Tuple[str, List[ScenarioSpec]]]" = \
            queue.Queue()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._counter = itertools.count(1)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "CampaignScheduler":
        if self._thread is not None:
            raise RuntimeError("scheduler already started")
        self._stop.clear()
        self._thread = threading.Thread(target=self._work,
                                        name="repro-scheduler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Finish the running job (if any) and stop taking new ones."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "CampaignScheduler":
        return self.start()

    def __exit__(self, *exc_info: object) -> bool:
        self.stop()
        return False

    # ------------------------------------------------------------------ #
    # Submission / inspection (the Python API behind the HTTP one)
    # ------------------------------------------------------------------ #
    def submit(self, campaign: CampaignSpec, *,
               on_invalid: str = "raise") -> Dict[str, Any]:
        """Expand, dedupe against the store, queue; returns the job record.

        Raises :class:`ValueError` for campaigns that do not expand (bad
        axes, inadmissible cells under ``on_invalid="raise"``) — nothing
        is queued for an invalid submission.
        """
        scenarios = campaign.expand(on_invalid=on_invalid)
        deduped = sum(1 for spec in scenarios
                      if self.store.contains(spec.spec_hash()))
        job_id = f"job-{next(self._counter):04d}"
        job = {
            "id": job_id,
            "name": campaign.name,
            "state": "queued",
            "total": len(scenarios),
            "cached_at_submit": deduped,
            "completed": 0,
            "counts": {},
            "failures": [],
            "error": None,
            "submitted_at": time.time(),
            "started_at": None,
            "finished_at": None,
        }
        with self._lock:
            self._jobs[job_id] = job
            self._order.append(job_id)
        registry = get_registry()
        if registry.enabled:
            registry.add_gauge("repro_scheduler_jobs_pending", 1)
            if deduped:
                registry.inc("repro_scheduler_scenarios_deduped_total",
                             value=deduped)
        self._queue.put((job_id, scenarios))
        return dict(job)

    def job(self, job_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            job = self._jobs.get(job_id)
            return dict(job) if job is not None else None

    def jobs(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [dict(self._jobs[job_id])
                    for job_id in reversed(self._order)]

    def status(self) -> Dict[str, Any]:
        """The daemon's ``/status`` document."""
        with self._lock:
            states: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job["state"]] = states.get(job["state"], 0) + 1
        return {
            "kind": "repro.scheduler",
            "store": str(self.store.root),
            "store_entries": len(self.store),
            "jobs": states,
            "processes": self.processes,
            "batch_seeds": self.batch_seeds,
            "lanes": self.lanes,
        }

    # ------------------------------------------------------------------ #
    # Worker
    # ------------------------------------------------------------------ #
    def _work(self) -> None:
        while not self._stop.is_set():
            try:
                job_id, scenarios = self._queue.get(
                    timeout=self._POLL_SECONDS)
            except queue.Empty:
                continue
            self._run_job(job_id, scenarios)

    def _run_job(self, job_id: str, scenarios: List[ScenarioSpec]) -> None:
        with self._lock:
            job = self._jobs[job_id]
            job["state"] = "running"
            job["started_at"] = time.time()

        def progress(outcome, completed: int, total: int) -> None:
            with self._lock:
                job["completed"] = completed
                counts = job["counts"]
                counts[outcome.status] = counts.get(outcome.status, 0) + 1

        error: Optional[str] = None
        failures: List[Dict[str, Optional[str]]] = []
        try:
            result = run_campaign(scenarios, store=self.store,
                                  processes=self.processes,
                                  progress=progress,
                                  name=job["name"],
                                  batch_seeds=self.batch_seeds,
                                  lanes=self.lanes)
            failures = [{"scenario": outcome.spec.name,
                         "error": outcome.error}
                        for outcome in result.failures()]
        except Exception as exc:  # a job must never kill the daemon
            error = f"{type(exc).__name__}: {exc}"
        with self._lock:
            job["error"] = error
            job["failures"] = failures
            job["state"] = "failed" if (error or failures) else "done"
            job["finished_at"] = time.time()
            terminal = job["state"]
        registry = get_registry()
        if registry.enabled:
            registry.add_gauge("repro_scheduler_jobs_pending", -1)
            registry.inc("repro_scheduler_jobs_total", state=terminal)

    # ------------------------------------------------------------------ #
    # HTTP routing (plugged into MetricsServer(routes=...))
    # ------------------------------------------------------------------ #
    def handle_route(self, method: str, path: str, query: str,
                     body: bytes) -> Optional[Reply]:
        """Router for :class:`~repro.obs.httpd.MetricsServer`.

        Returns ``None`` for paths this daemon does not own, letting the
        built-in telemetry endpoints answer.
        """
        try:
            if path == "/campaigns" and method == "POST":
                return self._post_campaign(body)
            if path == "/campaigns" and method == "GET":
                return _json_reply(200, {"jobs": self.jobs()})
            if path.startswith("/campaigns/") and method == "GET":
                job = self.job(path[len("/campaigns/"):])
                if job is None:
                    return _json_reply(404, {"error": "no such job"})
                return _json_reply(200, job)
            if path == "/results" and method == "GET":
                return self._get_results(query)
        except Exception as exc:  # surface, don't crash the listener
            return _json_reply(500, {"error": f"{type(exc).__name__}: {exc}"})
        return None

    def _post_campaign(self, body: bytes) -> Reply:
        try:
            document = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return _json_reply(400, {"error": f"invalid JSON body: {exc}"})
        if not isinstance(document, dict):
            return _json_reply(400, {"error": "body must be a JSON object"})
        options = {}
        if "campaign" in document:
            options = document.get("options") or {}
            document = document["campaign"]
        try:
            campaign = CampaignSpec.from_dict(document)
            job = self.submit(
                campaign, on_invalid=options.get("on_invalid", "raise"))
        except (ValueError, TypeError) as exc:
            return _json_reply(400, {"error": str(exc)})
        return _json_reply(202, job)

    def _get_results(self, query: str) -> Reply:
        filters: Dict[str, Any] = {}
        for name, raw in urllib.parse.parse_qsl(query,
                                                keep_blank_values=True):
            try:
                filters[name] = json.loads(raw)
            except json.JSONDecodeError:
                filters[name] = raw  # bare strings stay strings
        try:
            results = self.store.query(**filters)
        except KeyError as exc:
            return _json_reply(400, {"error": exc.args[0]})
        return _json_reply(200, {
            "count": len(results),
            "rows": self.store.summary_rows(results),
        })
