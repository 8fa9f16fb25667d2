"""Campaign execution engine.

Turns expanded :class:`~repro.campaign.spec.ScenarioSpec` lists into
:class:`~repro.obs.history.TrainingHistory` results:

* scenarios already present in the optional :class:`ResultStore` are served
  from cache (this is what makes interrupted campaigns resumable — re-run
  the same campaign and only the missing cells execute);
* missing scenarios run through :func:`repro.runtime.run` — which picks
  the vectorised engine, the sequential simulator or a live runtime from
  the spec — serially or on a ``multiprocessing`` pool, each with the
  deterministic seed carried by its spec;
* a failing scenario never takes the campaign down: its traceback is
  captured into a ``failed`` outcome and the remaining scenarios proceed.

NOTE: :mod:`repro.experiments` imports are deliberately *lazy* — the legacy
experiment harnesses are themselves campaign definitions, so module-level
imports would be circular (see :mod:`repro.campaign.spec`).
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.aggregation import get_rule
from repro.batch import run_batched_scenarios, spec_supports_batching
from repro.campaign.spec import CampaignSpec, ScenarioSpec, ensure_unique_names
from repro.campaign.store import ResultStore
from repro.core.trainer import (
    GuanYuTrainer,
    SingleServerKrumTrainer,
    VanillaTrainer,
)
from repro.core.wiring import scenario_arguments
from repro.obs.history import TrainingHistory
from repro.kernels import use_backend
from repro.obs.telemetry import MetricsRegistry, get_registry, use_registry
from repro.obs.tracer import Tracer, get_tracer, use_tracer
from repro.runtime.facade import run as run_scenario

#: callback signature: ``progress(outcome, completed_count, total_count)``
ProgressCallback = Callable[["ScenarioOutcome", int, int], None]


# --------------------------------------------------------------------------- #
# Outcomes
# --------------------------------------------------------------------------- #
@dataclass
class ScenarioOutcome:
    """What happened to one scenario of a campaign."""

    spec: ScenarioSpec
    status: str  # "ran" | "cached" | "failed"
    history: Optional[TrainingHistory] = None
    error: Optional[str] = None
    #: full traceback of a failed scenario (``error`` is the one-line form)
    traceback: Optional[str] = None
    duration_seconds: float = 0.0
    store_key: Optional[str] = None
    #: whether the scenario ran as one lane of a multi-replica seed group
    #: (``batch_seeds``); a lone scenario's own R = 1 lane does not count
    batched: bool = False


@dataclass
class CampaignResult:
    """Ordered outcomes of one campaign execution."""

    name: str
    outcomes: List[ScenarioOutcome] = field(default_factory=list)

    def histories(self) -> Dict[str, TrainingHistory]:
        """Scenario name → history for every non-failed scenario."""
        return {outcome.spec.name: outcome.history for outcome in self.outcomes
                if outcome.history is not None}

    def counts(self) -> Dict[str, int]:
        counts = {"ran": 0, "cached": 0, "failed": 0}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    def failures(self) -> List[ScenarioOutcome]:
        return [outcome for outcome in self.outcomes
                if outcome.status == "failed"]

    def raise_on_failure(self) -> "CampaignResult":
        failures = self.failures()
        if failures:
            details = "; ".join(f"{outcome.spec.name}: {outcome.error}"
                                for outcome in failures)
            raise RuntimeError(
                f"campaign '{self.name}' had {len(failures)} failed "
                f"scenario(s): {details}")
        return self


# --------------------------------------------------------------------------- #
# Single-scenario execution
# --------------------------------------------------------------------------- #
def build_trainer(spec: ScenarioSpec):
    """Construct the trainer/runtime a scenario describes (not yet run)."""
    if spec.trainer == "guanyu_threaded" and spec.runtime == "cluster":
        from repro.runtime.cluster.supervisor import (  # lazy: sockets
            ClusterRuntime,
            cluster_available,
        )

        if cluster_available():
            return ClusterRuntime(spec)
        # Sockets unusable on this host (sandboxes forbid binding): fall
        # back to the threaded runtime, whose loss trajectories the tier-1
        # cluster equivalence gate pins to the cluster's.
    arguments, test, model_fn = scenario_arguments(spec)
    if spec.trainer == "guanyu_threaded":
        from repro.runtime.threads import ThreadedClusterRuntime  # lazy

        return ThreadedClusterRuntime(
            config=spec.cluster_config(), model_fn=model_fn,
            jitter=spec.jitter, quorum_timeout=spec.quorum_timeout,
            **arguments)
    simulated = dict(
        model_fn=model_fn, test_dataset=test,
        delay_model=spec.build_delay_model(),
        cost_model=spec.build_cost_model(),
        cost_num_parameters=spec.billed_parameters, label=spec.name)
    if spec.trainer == "guanyu":
        return GuanYuTrainer(config=spec.cluster_config(), **arguments,
                             **simulated)
    # The single-server baselines take the worker side of the vocabulary.
    simulated.update(
        (key, arguments[key]) for key in (
            "train_dataset", "seed", "batch_size", "sharding", "hetero",
            "schedule", "worker_attack", "num_attacking_workers"))
    if spec.trainer == "vanilla":
        return VanillaTrainer(
            num_workers=spec.num_workers,
            external_communication=spec.external_communication,
            gradient_rule=get_rule(spec.gradient_rule,
                                   num_byzantine=spec.declared_byzantine_workers),
            **simulated)
    if spec.trainer == "single_server_krum":
        return SingleServerKrumTrainer(
            num_byzantine_workers=spec.declared_byzantine_workers,
            num_workers=spec.num_workers, **simulated)
    raise ValueError(f"unknown trainer '{spec.trainer}'")


def _execute_validated(spec: ScenarioSpec) -> TrainingHistory:
    """Build and run one already-validated scenario.

    This is the sequential/threaded/cluster execution body behind
    :func:`repro.runtime.run` (which owns validation, runtime resolution
    and kernel-backend selection).  The facade dispatches the batched
    runtime to :mod:`repro.batch` directly; a dense-model ``guanyu`` spec
    reaches here only when that engine raised ``BatchingUnsupported`` for
    a spec that did not name a runtime.
    """
    trainer = build_trainer(spec)
    if spec.trainer == "guanyu_threaded":  # threads or cluster: wall clock
        history = trainer.run(spec.num_steps)
        history.label = spec.name
        return history
    return trainer.run(spec.num_steps, eval_every=spec.eval_every,
                       max_eval_samples=spec.max_eval_samples)


def _run_payload(payload: Dict) -> Dict:
    """Pool-friendly wrapper: dict spec in, dict outcome out, never raises.

    Every scenario executes under a scenario-local :class:`Tracer` whose
    compact :meth:`~Tracer.summary` travels back in the outcome dict (it
    must cross a pool boundary, so raw events stay local).  When an outer
    tracer is active — serial in-process execution under ``repro --trace``
    — the raw events are forwarded to it as well.
    """
    started = time.perf_counter()
    outer = get_tracer()
    local = Tracer(capacity=50_000,
                   record_decisions=getattr(outer, "record_decisions", False))
    # Like the trace, metrics recorded inside a pool worker cannot reach
    # the parent's registry directly — a scenario-local registry rides back
    # in the payload and the parent merges it (see ``finish_payload``).
    metrics = MetricsRegistry()
    try:
        with use_tracer(local), use_registry(metrics):
            history = run_scenario(ScenarioSpec.from_dict(payload)).history
        _forward_trace(outer, local)
        return {"status": "ran", "history": history.to_dict(), "error": None,
                "traceback": None,
                "duration": time.perf_counter() - started,
                "trace_summary": local.summary(),
                "metrics_snapshot": metrics.snapshot()}
    except Exception as exc:  # noqa: BLE001 - per-scenario failure isolation
        _forward_trace(outer, local)
        return {"status": "failed", "history": None,
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
                "duration": time.perf_counter() - started,
                "trace_summary": local.summary(),
                "metrics_snapshot": metrics.snapshot()}


def _forward_trace(outer, local: Tracer) -> None:
    """Copy a scenario-local trace into the outer tracer, if one is active."""
    if not outer.enabled:
        return
    outer.extend(local.events())
    for counter_name, value in local.counters().items():
        outer.count(counter_name, value)


def _run_batched_payloads(payloads: List[Dict],
                          lanes: Optional[int] = None) -> List[Dict]:
    """Run a seed-replica group on the batched runtime; one dict per spec.

    ``lanes > 1`` shards the group's replica lanes over a process pool
    (:func:`repro.batch.run_batched_scenarios`); the merged histories stay
    bit-identical, but per-step traces produced inside chunk workers do
    not cross the pool boundary.  A group that raises is re-run scenario
    by scenario through :func:`repro.runtime.run` — per-seed failure
    isolation, not a second engine: each seed runs as a one-lane group, so
    the seed that starved a quorum reports the engine's own
    ``BatchedExecutionError`` and the others complete.  The sequential
    trainer is reached only where :func:`repro.runtime.run` meets
    ``BatchingUnsupported``.
    """
    started = time.perf_counter()
    outer = get_tracer()
    local = Tracer(capacity=50_000,
                   record_decisions=getattr(outer, "record_decisions", False))
    metrics = MetricsRegistry()
    try:
        specs = [ScenarioSpec.from_dict(payload) for payload in payloads]
        with use_tracer(local), use_registry(metrics), \
                use_backend(specs[0].kernels if specs else None):
            histories = run_batched_scenarios(specs, lanes=lanes)
    except Exception:  # noqa: BLE001 - fall back to per-scenario isolation
        return [_run_payload(payload) for payload in payloads]
    _forward_trace(outer, local)
    duration = (time.perf_counter() - started) / max(len(payloads), 1)
    # The group ran as one vectorised execution: every member carries the
    # same (shared) trace summary; the metrics snapshot rides on the first
    # member only, so the parent merges the group exactly once.
    summary = local.summary()
    snapshot = metrics.snapshot()
    return [{"status": "ran", "history": history.to_dict(), "error": None,
             "traceback": None, "duration": duration, "batched": True,
             "trace_summary": summary,
             "metrics_snapshot": snapshot if index == 0 else None}
            for index, history in enumerate(histories)]


def _run_indexed_task(item: tuple) -> tuple:
    """Pool wrapper: ``(index, kind, payloads)`` → ``(index, outcome list)``."""
    index, kind, payloads = item
    if kind == "batch":
        return index, _run_batched_payloads(payloads)
    return index, [_run_payload(payloads[0])]


# --------------------------------------------------------------------------- #
# Campaign execution
# --------------------------------------------------------------------------- #
def run_campaign(campaign: Union[CampaignSpec, Iterable[ScenarioSpec]],
                 store: Optional[ResultStore] = None,
                 processes: Optional[int] = None,
                 progress: Optional[ProgressCallback] = None,
                 on_invalid: str = "raise",
                 name: Optional[str] = None,
                 batch_seeds: bool = False,
                 lanes: Optional[int] = None) -> CampaignResult:
    """Execute a campaign (or a plain scenario list).

    Parameters
    ----------
    campaign:
        A :class:`CampaignSpec` (expanded here) or an iterable of
        already-expanded :class:`ScenarioSpec`.
    store:
        Optional :class:`ResultStore`.  Scenarios whose spec hash is already
        present are returned as ``cached`` without re-training; freshly run
        scenarios are persisted, so re-running an interrupted campaign
        resumes where it stopped.
    processes:
        ``None``/``0``/``1`` runs scenarios serially in-process; ``> 1``
        fans the pending scenarios out over a ``multiprocessing`` pool of
        (at most) that many workers.
    progress:
        Optional callback invoked once per completed scenario with
        ``(outcome, completed_count, total_count)``.
    on_invalid:
        Forwarded to :meth:`CampaignSpec.expand` (``"raise"`` or ``"skip"``).
    name:
        Result name for plain scenario lists (a :class:`CampaignSpec` brings
        its own).
    batch_seeds:
        Detect **seed-only axes**: pending scenarios that are identical
        except for their seed (equal :meth:`ScenarioSpec.batch_group_hash`)
        and within the batched runtime's envelope run as *one* vectorised
        multi-replica execution (:mod:`repro.batch`) instead of N separate
        simulations.  Results are bit-identical per seed and are stored
        under each scenario's unchanged content address, so existing stores
        stay valid; groups the batched runtime cannot execute fall back to
        sequential runs automatically.
    lanes:
        ``> 1`` shards each batched seed group's replica lanes over a
        process pool of that many workers
        (:func:`repro.batch.run_batched_scenarios`).  Because a pool
        worker cannot fork workers of its own, lane-sharded groups execute
        in the main process — under ``processes > 1`` the lone scenarios
        go to the scenario pool while the batch groups run (lane-parallel)
        in the foreground.
    """
    if isinstance(campaign, CampaignSpec):
        name = campaign.name
        scenarios = campaign.expand(on_invalid=on_invalid)
    else:
        name = name if name is not None else "campaign"
        scenarios = [scenario.validate() for scenario in campaign]
        ensure_unique_names(scenarios)

    total = len(scenarios)
    completed = 0
    outcomes: Dict[str, ScenarioOutcome] = {}
    tracer = get_tracer()
    registry = get_registry()
    campaign_started = time.perf_counter()
    if registry.enabled:
        registry.set_gauge("repro_campaign_scenarios_pending", total)
        registry.set_gauge("repro_campaign_scenarios_running", 0)

    def finish(outcome: ScenarioOutcome) -> None:
        nonlocal completed
        outcomes[outcome.spec.name] = outcome
        completed += 1
        if registry.enabled:
            registry.inc("repro_campaign_scenarios_total",
                         status=outcome.status)
            registry.set_gauge("repro_campaign_scenarios_pending",
                               total - completed)
        if progress is not None:
            progress(outcome, completed, total)

    # Scenarios are deduplicated by content address: cells that differ only
    # in name train once and the others are served as cache hits.
    pending_specs: Dict[str, List[ScenarioSpec]] = {}
    for spec in scenarios:
        key = spec.spec_hash()
        if store is not None and store.contains(key):
            stored = store.get(key)
            # The hash excludes the name, so the cache may have been filled
            # under a different label — relabel for this campaign's view.
            stored.history.label = spec.name
            tracer.count("campaign.cache_hit")
            registry.inc("repro_campaign_cache_total", result="hit")
            finish(ScenarioOutcome(spec=spec, status="cached",
                                   history=stored.history, store_key=key,
                                   duration_seconds=0.0))
        else:
            tracer.count("campaign.cache_miss")
            registry.inc("repro_campaign_cache_total", result="miss")
            pending_specs.setdefault(key, []).append(spec)
    pending = [(specs[0], key) for key, specs in pending_specs.items()]

    def finish_payload(spec: ScenarioSpec, key: str, payload: Dict,
                       pooled: bool = False) -> None:
        history = (TrainingHistory.from_dict(payload["history"])
                   if payload["history"] is not None else None)
        outcome = ScenarioOutcome(spec=spec, status=payload["status"],
                                  history=history, error=payload["error"],
                                  traceback=payload.get("traceback"),
                                  duration_seconds=payload["duration"],
                                  batched=payload.get("batched", False))
        if registry.enabled:
            elapsed = time.perf_counter() - campaign_started
            registry.observe("repro_campaign_scenario_seconds",
                             outcome.duration_seconds,
                             batched="true" if outcome.batched else "false")
            registry.observe("repro_campaign_queue_wait_seconds",
                             max(elapsed - outcome.duration_seconds, 0.0))
            snapshot = payload.get("metrics_snapshot")
            if snapshot:
                registry.merge(snapshot)
        if tracer.enabled:
            # Queue wait ≈ time since dispatch not spent executing: exact
            # for serial runs, an upper bound under a busy pool.
            elapsed = time.perf_counter() - campaign_started
            attrs = {"scenario": spec.name, "status": outcome.status,
                     "batched": outcome.batched,
                     "duration_s": outcome.duration_seconds,
                     "queue_wait_s": max(
                         elapsed - outcome.duration_seconds, 0.0)}
            if pooled:
                # The raw per-step spans never cross the pool boundary, so
                # the scenario's compact trace summary rides along in the
                # event — it is what lets `repro report` still produce a
                # phase breakdown.  Serial runs forward the raw events
                # instead (embedding the summary too would double-count).
                attrs["trace_summary"] = payload.get("trace_summary")
            tracer.event("campaign.scenario", **attrs)
            tracer.count("campaign.scenario_seconds",
                         outcome.duration_seconds)
        if store is not None and outcome.status == "ran":
            trace_summary = payload.get("trace_summary")
            outcome.store_key = store.put(
                spec, history, duration_seconds=outcome.duration_seconds,
                extra_meta=({"trace_summary": trace_summary}
                            if trace_summary else None))
        finish(outcome)
        for twin in pending_specs[key][1:]:
            twin_history = None
            if payload["history"] is not None:
                twin_history = TrainingHistory.from_dict(payload["history"])
                twin_history.label = twin.name
            status = "cached" if payload["status"] == "ran" else payload["status"]
            finish(ScenarioOutcome(spec=twin, status=status,
                                   history=twin_history,
                                   error=payload["error"],
                                   traceback=payload.get("traceback"),
                                   store_key=outcome.store_key))

    # One task = one unit of pool work: a lone scenario, or a seed-replica
    # group destined for the batched runtime.
    tasks: List[Tuple[str, List[Tuple[ScenarioSpec, str]]]] = []
    if batch_seeds:
        seed_groups: Dict[str, List[Tuple[ScenarioSpec, str]]] = {}
        singles: List[Tuple[ScenarioSpec, str]] = []
        for spec, key in pending:
            if spec_supports_batching(spec):
                seed_groups.setdefault(spec.batch_group_hash(),
                                       []).append((spec, key))
            else:
                singles.append((spec, key))
        for bucket in seed_groups.values():
            if len(bucket) >= 2:
                tasks.append(("batch", bucket))
            else:
                singles.extend(bucket)
        tasks.extend(("single", [item]) for item in singles)
    else:
        tasks = [("single", [item]) for item in pending]

    # Lane sharding forks chunk workers, which a daemonic scenario-pool
    # worker cannot do — so lane-sharded batch groups stay in the main
    # process and only the remaining tasks are eligible for the pool.
    lane_sharding = bool(lanes and lanes > 1)
    pool_tasks = list(enumerate(tasks))
    foreground: List[Tuple[int, str, List[Tuple[ScenarioSpec, str]]]] = []
    if lane_sharding:
        pool_tasks = [(index, task) for index, task in enumerate(tasks)
                      if task[0] != "batch"]
        foreground = [(index, kind, bucket)
                      for index, (kind, bucket) in enumerate(tasks)
                      if kind == "batch"]

    def set_running(count: int) -> None:
        if registry.enabled:
            registry.set_gauge("repro_campaign_scenarios_running", count)

    if processes and processes > 1 and len(pool_tasks) > 1:
        pool_size = min(processes, len(pool_tasks))
        items = [(index, kind, [spec.to_dict() for spec, _ in bucket])
                 for index, (kind, bucket) in pool_tasks]
        # Under a pool the in-flight count is approximate: the pool is
        # saturated until fewer tasks remain than workers.
        set_running(min(pool_size, len(pool_tasks)))
        with multiprocessing.get_context().Pool(pool_size) as pool:
            # Unordered: each result is persisted/reported the moment it
            # completes, so an interruption loses at most the in-flight
            # scenarios — not everything queued behind a slow one.
            results = pool.imap_unordered(_run_indexed_task, items)
            # Batch groups run lane-parallel in the foreground while the
            # pool chews through the singles.
            for index, kind, bucket in foreground:
                payloads = _run_batched_payloads(
                    [spec.to_dict() for spec, _ in bucket], lanes=lanes)
                for (spec, key), payload in zip(bucket, payloads):
                    finish_payload(spec, key, payload)
            done_tasks = 0
            for index, payloads in results:
                done_tasks += 1
                set_running(min(pool_size, len(pool_tasks) - done_tasks))
                for (spec, key), payload in zip(tasks[index][1], payloads):
                    finish_payload(spec, key, payload, pooled=True)
    else:
        for kind, bucket in tasks:
            set_running(len(bucket))
            if kind == "batch":
                payloads = _run_batched_payloads(
                    [spec.to_dict() for spec, _ in bucket],
                    lanes=lanes if lane_sharding else None)
            else:
                payloads = [_run_payload(bucket[0][0].to_dict())]
            set_running(0)
            for (spec, key), payload in zip(bucket, payloads):
                finish_payload(spec, key, payload)
    set_running(0)

    return CampaignResult(name=name,
                          outcomes=[outcomes[spec.name] for spec in scenarios])
