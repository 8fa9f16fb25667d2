"""One front door for executing a scenario: :func:`repro.runtime.run`.

Four execution runtimes grew side by side — the sequential simulated
trainers, the vectorised batched runtime, the threaded runtime and the
process-cluster runtime — each with its own entrypoint.  This module
collapses them behind a single call::

    from repro.runtime import run
    result = run(spec)                 # ScenarioResult
    result.history                     # TrainingHistory
    result.runtime                     # "sequential" | "batched" | ...

Dispatch is driven entirely by the spec: ``ScenarioSpec.runtime`` when
explicit (``"batched"``, ``"cluster"``); otherwise ``guanyu_threaded`` →
threaded, a ``guanyu`` scenario over a dense model → the vectorised
engine as a one-lane (R = 1) group, and everything else (conv models, the
single-server baselines) → the sequential simulator.  A one-lane run owns
its outcome: a quorum-starved step fails as the engine's
``BatchedExecutionError`` (the simulator's sentence, word for word) and any
other error propagates as raised; only ``BatchingUnsupported`` re-runs on
the sequential :class:`~repro.core.trainer.GuanYuTrainer`.  Tracer and
registry state never enter the choice.  The run
executes under the spec's kernel backend (``ScenarioSpec.kernels``, via
:func:`repro.kernels.use_backend`) and, when given a store, is served from
cache / persisted under the spec's content address exactly like the
campaign engine does.

This module must not import :mod:`repro.campaign` (or anything that
imports it) at module level — campaign specs import
:mod:`repro.runtime.cost`, so the package has to stay import-light.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from repro.kernels import use_backend
from repro.obs.telemetry import get_registry
from repro.obs.tracer import get_tracer, use_tracer

if TYPE_CHECKING:  # pragma: no cover - type-only imports (cycles otherwise)
    from repro.campaign.spec import ScenarioSpec
    from repro.campaign.store import ResultStore
    from repro.obs.history import TrainingHistory
    from repro.obs.tracer import Tracer

#: runtime kinds :func:`resolve_runtime` can return
RUNTIME_KINDS = ("sequential", "batched", "threaded", "cluster")


@dataclass
class ScenarioResult:
    """What :func:`run` produced for one scenario."""

    spec: "ScenarioSpec"
    history: "TrainingHistory"
    #: ``"ran"`` (freshly executed) or ``"cached"`` (served from the store)
    status: str
    #: resolved runtime kind — one of :data:`RUNTIME_KINDS`
    runtime: str
    #: content address in the store (``None`` when no store was given)
    store_key: Optional[str] = None
    duration_seconds: float = 0.0


def resolve_runtime(spec: "ScenarioSpec") -> str:
    """The runtime kind a spec dispatches to (without running anything).

    A lone dense-model GuanYu scenario is an R = 1 lane of the batched
    engine; :attr:`ScenarioResult.runtime` reports ``"sequential"`` instead
    when the engine turned out to have no formulation for it.
    """
    if spec.runtime is not None:
        return spec.runtime  # "batched" | "cluster" (validated by the spec)
    if spec.trainer == "guanyu_threaded":
        return "threaded"
    from repro.batch import spec_supports_batching  # lazy: import cycle

    return "batched" if spec_supports_batching(spec) else "sequential"


def run(spec: "ScenarioSpec", *, store: Optional["ResultStore"] = None,
        tracer: Optional["Tracer"] = None) -> ScenarioResult:
    """Validate and execute one scenario on the runtime it describes.

    Parameters
    ----------
    spec:
        A :class:`~repro.campaign.spec.ScenarioSpec`; validated here, so
        callers can hand over unchecked specs.
    store:
        Optional :class:`~repro.campaign.store.ResultStore`.  A cache hit
        under the spec's content address returns ``status="cached"``
        without executing; a fresh run is persisted before returning.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer` made ambient for the
        duration of the run.  ``None`` leaves the caller's ambient tracer
        (:func:`repro.obs.tracer.get_tracer`) in effect.
    """
    spec.validate()
    kind = resolve_runtime(spec)

    store_key: Optional[str] = None
    if store is not None:
        store_key = spec.spec_hash()
        hit = store.contains(store_key)
        registry = get_registry()
        if registry.enabled:
            registry.inc("repro_runtime_cache_total",
                         result="hit" if hit else "miss")
        if hit:
            stored = store.get(store_key)
            # The hash excludes the name: relabel for this caller's view.
            stored.history.label = spec.name
            return ScenarioResult(spec=spec, history=stored.history,
                                  status="cached", runtime=kind,
                                  store_key=store_key, duration_seconds=0.0)

    started = time.perf_counter()
    tracer_scope = use_tracer(tracer) if tracer is not None else nullcontext()
    with tracer_scope, use_backend(spec.kernels):
        history, kind = _execute(spec, kind)
    duration = time.perf_counter() - started
    if store is not None:
        store_key = store.put(spec, history, duration_seconds=duration)
    return ScenarioResult(spec=spec, history=history, status="ran",
                          runtime=kind, store_key=store_key,
                          duration_seconds=duration)


def _execute(spec: "ScenarioSpec",
             kind: str) -> Tuple["TrainingHistory", str]:
    """Run ``spec`` on ``kind``; returns the history and the kind that ran."""
    if kind == "batched":
        from repro.batch import (  # lazy: import cycle
            BatchingUnsupported,
            run_batched_scenarios,
        )

        try:
            return run_batched_scenarios([spec])[0], kind
        except BatchingUnsupported as exc:
            if spec.runtime is not None:
                raise  # the spec asked for this engine by name
            # The envelope predicate admitted a model the engine has no
            # formulation for: the simulator runs it.  Anything else the
            # lane raises — a quorum-starved step's
            # ``BatchedExecutionError``, a genuine training error — is the
            # scenario's outcome and propagates as raised.
            get_tracer().event("runtime.fallback", scenario=spec.name,
                               reason=f"{type(exc).__name__}: {exc}")
            registry = get_registry()
            if registry.enabled:
                registry.inc("repro_runtime_fallback_total",
                             reason=type(exc).__name__)
            kind = "sequential"
    # Sequential, threaded and cluster construction lives with the
    # campaign engine's trainer factory.
    from repro.campaign.engine import _execute_validated  # lazy: cycle

    return _execute_validated(spec), kind
