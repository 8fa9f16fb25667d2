"""One front door for executing a scenario: :func:`repro.runtime.run`::

    from repro.runtime import run
    result = run(spec)                 # ScenarioResult
    result.history                     # TrainingHistory
    result.runtime                     # "sequential" | "batched" | ...

This is the one module that knows which protocol runs on which engine:
``ScenarioSpec.trainer`` names a row of :data:`TRAINERS` (the protocol),
``ScenarioSpec.runtime`` a key of :data:`CLOCKS` (the engine), and
:data:`EXECUTORS` holds one ``spec -> TrainingHistory`` per runtime kind.

Dispatch is driven entirely by the spec: ``ScenarioSpec.runtime`` when
explicit; otherwise a ``guanyu`` scenario over a dense model is a one-lane
(R = 1) group of the vectorised engine and every other scenario runs on
the sequential simulator.  A ``"cluster"`` spec on a host that cannot bind
sockets resolves to ``"threaded"``, and :attr:`ScenarioResult.runtime`
says so.  Whatever the engine raises is the scenario's outcome — a
quorum-starved lane's ``BatchedExecutionError`` is the simulator's
sentence, word for word — and nothing is re-run elsewhere.  Tracer and
registry state never enter the choice.  The run executes under the spec's
kernel backend and, given a store, is served from cache / persisted under
the spec's content address.

This module must not import :mod:`repro.campaign` (or anything that
imports it) at module level: campaign specs read :data:`TRAINERS`.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.kernels import use_backend
from repro.network.message import ROUTES, MessageKind, one_trusted_server
from repro.obs.telemetry import get_registry
from repro.obs.tracer import use_tracer

if TYPE_CHECKING:  # pragma: no cover - type-only imports (cycles otherwise)
    from repro.campaign.spec import ScenarioSpec
    from repro.campaign.store import ResultStore
    from repro.obs.history import TrainingHistory
    from repro.obs.tracer import Tracer


# --------------------------------------------------------------------------- #
# Trainers: ``build(spec, arguments, test, model_fn)`` over the wiring's
# vocabulary (:func:`repro.core.wiring.scenario_arguments`); imports are
# lazy, see the module docstring
# --------------------------------------------------------------------------- #
def _simulated(spec, arguments, test, model_fn):
    from repro.core.trainer import GuanYuTrainer

    kind = TRAINERS[spec.trainer]
    trainer = GuanYuTrainer(
        config=spec.cluster_config(), routes=kind.routes,
        external_communication=spec.external_communication, **arguments,
        model_fn=model_fn, test_dataset=test,
        delay_model=spec.build_delay_model(),
        cost_model=spec.build_cost_model(),
        cost_num_parameters=spec.billed_parameters, label=spec.name)
    trainer.history.config.update(
        (name, getattr(spec, name)) for name in kind.records)
    return trainer


def _threaded(spec, arguments, _test, model_fn):
    from repro.runtime.threads import ThreadedClusterRuntime

    return ThreadedClusterRuntime(
        config=spec.cluster_config(), model_fn=model_fn, jitter=spec.jitter,
        quorum_timeout=spec.quorum_timeout, **arguments)


@dataclass(frozen=True)
class TrainerKind:
    """One row of :data:`TRAINERS`: what a ``ScenarioSpec.trainer`` means."""

    #: the :data:`~repro.network.message.ROUTES` kinds one step walks.  With
    #: the servers' exchange the servers are replicated (GuanYu: every
    #: runtime); without it there is one trusted server (the sequential
    #: simulator only, :func:`~repro.network.message.one_trusted_server`)
    routes: Tuple[MessageKind, ...]
    #: field → why the trainer ignores it.  ``ScenarioSpec.validate`` keeps
    #: such a field at its default, or the store would record (and hash) a
    #: knob the run never used.
    ignores: Dict[str, str]
    #: spec fields ``history.config`` records besides the trainer's own
    records: Tuple[str, ...] = ()


_SIMULATED_CLOCK = ("runs on a simulated clock and takes a delay_model instead (the "
                    "wall-clock knobs apply only to runtimes 'threaded' and 'cluster')")
_REAL_CLOCK = ("runs on the real clock and ignores delay/cost models (its "
               "knobs are 'jitter' and 'quorum_timeout')")
_NOT_VANILLA = ("is not the 'vanilla GuanYu' baseline, which "
                "external_communication models (trainer 'vanilla')")
#: the routes of a protocol with one trusted server: GuanYu's first two
_TRUSTED_SERVER = tuple(ROUTES)[:2]
_SINGLE_SERVER = {
    "adversary": "is a single-server baseline, and adversaries model the "
                 "paper's full threat model (take a worker_attack instead)",
    "faults": "assumes a live trusted server; fault schedules require "
              "replicated parameter servers",
    "server_attack": "assumes a trusted parameter server",
    "model_rule": "has a single parameter server and never aggregates "
                  "models",
}

#: ``ScenarioSpec.trainer`` → :class:`TrainerKind`, in
#: :func:`repro.campaign.available_trainers` order
TRAINERS: Dict[str, TrainerKind] = {
    "guanyu": TrainerKind(
        routes=tuple(ROUTES), ignores={"external_communication": _NOT_VANILLA}),
    "vanilla": TrainerKind(routes=_TRUSTED_SERVER, ignores=_SINGLE_SERVER),
    "single_server_krum": TrainerKind(
        routes=_TRUSTED_SERVER,
        ignores={**_SINGLE_SERVER, "external_communication": _NOT_VANILLA,
                 "gradient_rule": "always aggregates with multi_krum (use "
                                  "trainer 'vanilla' to choose a gradient "
                                  "rule)"},
        records=("declared_byzantine_workers",)),
}

#: ``ScenarioSpec.runtime`` → its engine's clock (``None``: the default
#: dispatch), and clock → field → why a run on that clock ignores it
CLOCKS = {None: "simulated", "batched": "simulated", "threaded": "real", "cluster": "real"}
CLOCK_IGNORES = {"simulated": dict.fromkeys(("jitter", "quorum_timeout"), _SIMULATED_CLOCK),
                 "real": dict.fromkeys(("delay_model", "delay_kwargs", "cost_model"), _REAL_CLOCK)}

#: ``(trainer, runtime)`` → its stored spelling (``ScenarioSpec.to_dict``) and back (on
#: construction).  GuanYu on the real clock was the trainer ``guanyu_threaded``; stores and
#: scripts hold it, so it is read for good and written back, and no content address moves.
STORED_SPELLINGS = {("guanyu", "threaded"): ("guanyu_threaded", None),
                    ("guanyu", "cluster"): ("guanyu_threaded", "cluster")}
READ_SPELLINGS = {stored: pair for pair, stored in STORED_SPELLINGS.items()}
READ_SPELLINGS[("guanyu_threaded", "threaded")] = ("guanyu", "threaded")


def build_trainer(spec: "ScenarioSpec"):
    """Construct the trainer a scenario describes (not yet run).

    The cluster runtime has no trainer object (:data:`EXECUTORS` hands a ``"cluster"`` spec to
    :class:`~repro.runtime.cluster.Supervisor`), so a real-clock spec builds the threaded one.
    """
    from repro.core.wiring import scenario_arguments

    build = _threaded if CLOCKS[spec.runtime] == "real" else _simulated
    return build(spec, *scenario_arguments(spec))


def check_runtime(spec: "ScenarioSpec", kind: str) -> None:
    """Raise ``ValueError`` unless ``spec`` may run on the named runtime, which must keep the
    clock of the spec's own."""
    from repro.batch import spec_supports_batching  # lazy: import cycle

    if kind not in CLOCKS:
        raise ValueError(f"unknown runtime '{kind}'; available: {list(CLOCKS)}")
    if CLOCKS[kind] != CLOCKS[spec.runtime]:
        raise ValueError(f"runtime '{kind}' keeps the {CLOCKS[kind]} clock, not the "
                         f"{CLOCKS[spec.runtime]} clock of runtime {spec.runtime!r}")
    if one_trusted_server(TRAINERS[spec.trainer].routes):
        raise ValueError(f"trainer '{spec.trainer}' is a single-server baseline and takes "
                         f"no runtime (got '{kind}')")
    if kind == "batched" and not spec_supports_batching(spec):
        raise ValueError(f"runtime 'batched' requires a replica-batchable dense model "
                         f"(got model '{spec.model}')")
    if kind == "cluster" and spec.kernels is not None:
        raise ValueError(
            "runtime 'cluster' spawns one OS process per node and does not "
            "propagate an in-process kernel selection; set the "
            "REPRO_KERNEL_BACKEND environment variable instead")


# --------------------------------------------------------------------------- #
# Executors: a validated spec in, its history out
# --------------------------------------------------------------------------- #
def _run_simulated(spec: "ScenarioSpec") -> "TrainingHistory":
    return build_trainer(spec).run(spec.num_steps, eval_every=spec.eval_every,
                                   max_eval_samples=spec.max_eval_samples)


def _run_batched(spec: "ScenarioSpec") -> "TrainingHistory":
    from repro.batch import run_batched_scenarios  # lazy: import cycle

    return run_batched_scenarios([spec])[0]


def _run_threaded(spec: "ScenarioSpec") -> "TrainingHistory":
    return build_trainer(spec).run(spec.num_steps)


def _run_cluster(spec: "ScenarioSpec") -> "TrainingHistory":
    from repro.runtime.cluster.supervisor import Supervisor  # lazy: sockets

    return Supervisor(spec).run()


#: runtime kind → ``spec -> TrainingHistory``
EXECUTORS: Dict[str, Callable[["ScenarioSpec"], "TrainingHistory"]] = {
    "sequential": _run_simulated,
    "batched": _run_batched,
    "threaded": _run_threaded,
    "cluster": _run_cluster,
}

#: runtime kinds :func:`resolve_runtime` can return
RUNTIME_KINDS = tuple(EXECUTORS)


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

    A ``"cluster"`` spec probes the host's sockets and resolves to
    ``"threaded"`` where they cannot be bound.
    """
    from repro.batch import spec_supports_batching  # lazy: import cycle

    kind = spec.runtime
    if kind is None:
        kind = "batched" if spec_supports_batching(spec) else "sequential"
    elif kind == "cluster":
        from repro.runtime.cluster.supervisor import cluster_available

        if not cluster_available():
            kind = "threaded"
    return kind


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
            return ScenarioResult(spec=spec,
                                  history=store.cached(store_key, spec.name),
                                  status="cached", runtime=kind,
                                  store_key=store_key, duration_seconds=0.0)

    started = time.perf_counter()
    tracer_scope = use_tracer(tracer) if tracer is not None else nullcontext()
    with tracer_scope, use_backend(spec.kernels):
        history = EXECUTORS[kind](spec)
    history.label = spec.name  # the live runtimes name theirs by runtime
    duration = time.perf_counter() - started
    if store is not None:
        store_key = store.put(spec, history, duration_seconds=duration)
    return ScenarioResult(spec=spec, history=history, status="ran",
                          runtime=kind, store_key=store_key,
                          duration_seconds=duration)
