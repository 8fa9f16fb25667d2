"""Declarative scenario and campaign specifications.

A :class:`ScenarioSpec` fully describes one training run — trainer kind,
aggregation rules, cluster shape, attacks, delay and cost models, workload
and seed — as plain JSON-serialisable data.  Its canonical-JSON SHA-256
(:meth:`ScenarioSpec.spec_hash`) is the content address under which the
:class:`repro.campaign.store.ResultStore` caches results.

A :class:`CampaignSpec` describes *many* runs: either an explicit scenario
list, or a base scenario plus grid/zip axes that are expanded into the
cartesian product (grid) or element-wise bundles (zip) of their values.

NOTE: this module must not import :mod:`repro.experiments` at module level —
the experiment harnesses are themselves campaign definitions, so the imports
would be circular.  ``ExperimentScale`` conversions import lazily.
"""

from __future__ import annotations

import collections
import copy
import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.adversary import registry
from repro.aggregation import available_rules, get_rule
from repro.core.config import ClusterConfig
from repro.faults import FaultSchedule
from repro.hetero import HeteroSpec
from repro.network.delays import (
    ConstantDelay,
    DelayModel,
    ExponentialDelay,
    LogNormalDelay,
    UniformDelay,
)
from repro.runtime.cost import GRID5000_LIKE, INSTANT, CostModel

_TRAINERS = ("guanyu", "vanilla", "single_server_krum", "guanyu_threaded")
_DELAY_MODELS = {
    "constant": ConstantDelay,
    "uniform": UniformDelay,
    "exponential": ExponentialDelay,
    "lognormal": LogNormalDelay,
}
_COST_MODELS = {"grid5000": GRID5000_LIKE, "instant": INSTANT}
_DATASETS = ("blobs", "images")
_MODELS = ("softmax", "mlp", "small_cnn", "paper_cnn")


def available_trainers() -> List[str]:
    """Trainer kinds a scenario can request."""
    return list(_TRAINERS)


def available_delay_models() -> List[str]:
    """Delay-model names a scenario can request."""
    return sorted(_DELAY_MODELS)


def available_cost_models() -> List[str]:
    """Cost-model names a scenario can request."""
    return sorted(_COST_MODELS)


# --------------------------------------------------------------------------- #
# Attack specification
# --------------------------------------------------------------------------- #
@dataclass
class AttackSpec:
    """A registered behaviour by name plus its constructor keyword arguments.

    Names resolve through :func:`repro.adversary.registry.get` — stateless
    attacks and stateful adversaries share the one table, so
    ``ScenarioSpec(adversary="sign_flip")`` describes the same run as
    ``ScenarioSpec(worker_attack="sign_flip")``.  ``kwargs`` must stay
    JSON-serialisable — nested references (e.g. the sleeper's inner
    strategy) are plain name/kwargs dictionaries.
    """

    name: str
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def build(self) -> registry.Behaviour:
        """Instantiate a fresh (single-run) behaviour from the registry.

        Raises ``ValueError`` (not ``TypeError``) on bad keyword arguments so
        spec validation, ``expand(on_invalid="skip")`` and the CLI error
        path all treat a misspelled kwarg like any other invalid spec.
        """
        try:
            return registry.get(self.name, **self.kwargs)
        except TypeError as exc:
            raise ValueError(
                f"invalid kwargs for '{self.name}': {exc}") from exc

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "AttackSpec":
        return cls(name=payload["name"], kwargs=dict(payload.get("kwargs", {})))

    @classmethod
    def from_attack(cls, attack: registry.Behaviour) -> "AttackSpec":
        """Reconstruct a spec from a live attack instance.

        Attack classes store their constructor arguments as same-named public
        attributes, so the public scalar attributes round-trip through the
        registry (private/derived state is dropped).  Raises ``ValueError``
        for attacks that cannot be described declaratively — unregistered
        classes, or instances carrying non-scalar public state.
        """
        if attack.name not in registry.available():
            raise ValueError(
                f"attack '{attack.name}' is not in the Byzantine registry; "
                f"campaign specs can only describe registered attacks")

        def public_scalars(obj) -> Dict[str, Any]:
            return {key: value for key, value in vars(obj).items()
                    if not key.startswith("_")
                    and (value is None or isinstance(value, (bool, int, float, str)))}

        dropped = {key for key in vars(attack)
                   if not key.startswith("_") and key not in public_scalars(attack)}
        if dropped:
            raise ValueError(
                f"attack '{attack.name}' carries non-scalar attributes "
                f"{sorted(dropped)} that cannot round-trip through a spec")
        kwargs = {key: value for key, value in public_scalars(attack).items()
                  if value is not None}
        spec = cls(name=attack.name, kwargs=kwargs)
        if public_scalars(spec.build()) != public_scalars(attack):
            raise ValueError(
                f"attack '{attack.name}' does not round-trip through its "
                f"constructor keyword arguments")
        return spec


def _coerce_attack(value: Union[None, str, Dict, AttackSpec]) -> Optional[AttackSpec]:
    if value is None or isinstance(value, AttackSpec):
        return value
    if isinstance(value, str):
        return AttackSpec(name=value)
    if isinstance(value, dict):
        return AttackSpec.from_dict(value)
    raise TypeError(f"cannot interpret {value!r} as an attack spec")


def _coerce_faults(value: Union[None, Dict, FaultSchedule]) -> Optional[FaultSchedule]:
    """Normalise a faults field; schedules that do nothing become ``None``.

    The normalisation matters for content addressing: an empty schedule and
    an absent one describe the same run, so they must hash identically.
    """
    if value is None:
        return None
    if isinstance(value, dict):
        value = FaultSchedule.from_dict(value)
    if not isinstance(value, FaultSchedule):
        raise TypeError(f"cannot interpret {value!r} as a fault schedule")
    return value if value else None


def _coerce_hetero(value: Union[None, Dict, HeteroSpec]) -> Optional[HeteroSpec]:
    """Normalise a hetero field; a spec describing the legacy homogeneous
    i.i.d. run is falsy and becomes ``None`` (same content-addressing rule
    as :func:`_coerce_faults`: absent ≡ legacy, so they must hash alike)."""
    if value is None:
        return None
    if isinstance(value, dict):
        value = HeteroSpec.from_dict(value)
    if not isinstance(value, HeteroSpec):
        raise TypeError(f"cannot interpret {value!r} as a hetero spec")
    return value if value else None


# --------------------------------------------------------------------------- #
# Scenario specification
# --------------------------------------------------------------------------- #
@dataclass
class ScenarioSpec:
    """Complete, JSON-serialisable description of one training run.

    The defaults mirror ``ExperimentScale.small()`` so that a bare spec is
    runnable in seconds; :meth:`from_scale` imports a legacy scale object.
    """

    name: str = "scenario"
    #: ``guanyu`` | ``vanilla`` | ``single_server_krum`` | ``guanyu_threaded``
    trainer: str = "guanyu"

    # -- cluster shape (paper notation: n̄, n, f̄, f, q̄, q) ----------------- #
    num_workers: int = 9
    num_servers: int = 6
    declared_byzantine_workers: int = 2
    declared_byzantine_servers: int = 1
    model_quorum: Optional[int] = None
    gradient_quorum: Optional[int] = None

    # -- aggregation rules ------------------------------------------------- #
    gradient_rule: str = "multi_krum"
    model_rule: str = "median"

    # -- attacks ----------------------------------------------------------- #
    worker_attack: Optional[AttackSpec] = None
    #: ``None`` means "as many as declared" when a worker attack is present
    num_attacking_workers: Optional[int] = None
    server_attack: Optional[AttackSpec] = None
    num_attacking_servers: Optional[int] = None
    #: any registered behaviour driving both sides at once — typically a
    #: stateful coordinated adversary (mutually exclusive with the per-side
    #: attack fields; absent ≡ legacy behaviour, also for hashing)
    adversary: Optional[AttackSpec] = None

    # -- network delay / computation cost ---------------------------------- #
    delay_model: str = "uniform"
    delay_kwargs: Dict[str, float] = field(default_factory=dict)
    cost_model: str = "grid5000"
    #: threaded runtime only: delivery jitter bound and per-quorum deadline
    jitter: float = 0.0
    quorum_timeout: float = 60.0
    #: explicit execution runtime.  ``None`` lets
    #: :func:`repro.runtime.resolve_runtime` choose from the trainer and
    #: model (node threads for ``guanyu_threaded``, the vectorised engine
    #: for dense-model ``guanyu``, the simulated event loop otherwise —
    #: histories are bit-identical either way).  ``"batched"`` (trainer
    #: ``guanyu`` only) names the vectorised runtime explicitly;
    #: ``"cluster"`` (trainer ``guanyu_threaded`` only) runs one OS
    #: process per node over real sockets, under a supervisor.  Absent ≡
    #: legacy for content addressing, so pre-cluster stores stay valid.
    runtime: Optional[str] = None
    #: kernel backend (:mod:`repro.kernels`) the run should select, e.g.
    #: ``"numpy-opt"``.  Every backend is bit-identical by contract, so
    #: this is a performance knob, not a semantic one; absent ≡ legacy
    #: (the process default) for content addressing.
    kernels: Optional[str] = None

    # -- time-varying faults (GuanYu trainers only) ------------------------- #
    #: declarative :class:`~repro.faults.FaultSchedule` (or its dict form):
    #: crashes/recoveries, partitions that heal, per-link delay spikes /
    #: drop rates / slowdowns, step-gated attack activation
    faults: Optional[FaultSchedule] = None

    # -- data / worker heterogeneity ---------------------------------------- #
    #: declarative :class:`~repro.hetero.HeteroSpec` (or its dict form):
    #: non-i.i.d. partitions (Dirichlet label skew, shard splits, sample
    #: imbalance, feature drift) and per-worker profiles (batch size,
    #: local steps, delay multiplier).  Absent ≡ the legacy homogeneous
    #: split, also for content addressing.
    hetero: Optional[HeteroSpec] = None

    # -- workload ----------------------------------------------------------- #
    dataset: str = "blobs"
    dataset_size: int = 800
    image_size: int = 8
    model: str = "softmax"
    batch_size: int = 16
    learning_rate: float = 0.05
    sharding: str = "iid"
    #: vanilla trainer only (the paper's "vanilla GuanYu" baseline)
    external_communication: bool = False

    # -- schedule / duration ------------------------------------------------ #
    num_steps: int = 60
    eval_every: int = 10
    max_eval_samples: Optional[int] = 256
    billed_parameters: Optional[int] = 1_756_426
    seed: int = 42

    def __post_init__(self) -> None:
        self.worker_attack = _coerce_attack(self.worker_attack)
        self.server_attack = _coerce_attack(self.server_attack)
        self.adversary = _coerce_attack(self.adversary)
        self.faults = _coerce_faults(self.faults)
        self.hetero = _coerce_hetero(self.hetero)

    # ------------------------------------------------------------------ #
    # Derived values
    # ------------------------------------------------------------------ #
    def _sides(self, spec: Optional[AttackSpec]) -> tuple:
        """``(attacks_workers, attacks_servers)`` of a behaviour (if any).

        Building a behaviour (inner strategies, server-side attacks) just
        to read two booleans is wasteful across a sweep's many
        ``resolved_num_attacking_*``/``validate`` calls, so the answer is
        cached per configuration on this spec instance (the cache is plain
        instance state: dataclass equality, ``to_dict`` and ``replace`` all
        ignore it).
        """
        if spec is None:
            return False, False
        key = (spec.name, json.dumps(spec.kwargs, sort_keys=True, default=str))
        cache = self.__dict__.setdefault("_sides_cache", {})
        if key not in cache:
            behaviour = spec.build()
            cache[key] = (behaviour.attacks_workers, behaviour.attacks_servers)
        return cache[key]

    def resolved_num_attacking_workers(self) -> int:
        if self.worker_attack is None and not self._sides(self.adversary)[0]:
            return 0
        if self.num_attacking_workers is not None:
            return self.num_attacking_workers
        return self.declared_byzantine_workers

    def resolved_num_attacking_servers(self) -> int:
        if self.server_attack is None and not self._sides(self.adversary)[1]:
            return 0
        if self.num_attacking_servers is not None:
            return self.num_attacking_servers
        return self.declared_byzantine_servers

    def cluster_config(self) -> ClusterConfig:
        """The validated ``(n, f, n̄, f̄, q, q̄)`` arithmetic of this scenario."""
        return ClusterConfig(
            num_servers=self.num_servers,
            num_workers=self.num_workers,
            num_byzantine_servers=self.declared_byzantine_servers,
            num_byzantine_workers=self.declared_byzantine_workers,
            model_quorum=self.model_quorum,
            gradient_quorum=self.gradient_quorum,
        )

    def build_delay_model(self) -> DelayModel:
        try:
            delay_class = _DELAY_MODELS[self.delay_model]
        except KeyError:
            raise ValueError(
                f"unknown delay model '{self.delay_model}'; "
                f"available: {available_delay_models()}"
            ) from None
        return delay_class(**self.delay_kwargs)

    def build_cost_model(self) -> CostModel:
        try:
            return _COST_MODELS[self.cost_model]
        except KeyError:
            raise ValueError(
                f"unknown cost model '{self.cost_model}'; "
                f"available: {available_cost_models()}"
            ) from None

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(self) -> "ScenarioSpec":
        """Check admissibility; raises ``ValueError`` on an invalid spec."""
        if self.trainer not in _TRAINERS:
            raise ValueError(f"unknown trainer '{self.trainer}'; "
                             f"available: {available_trainers()}")
        for rule in (self.gradient_rule, self.model_rule):
            if rule not in available_rules():
                raise ValueError(f"unknown aggregation rule '{rule}'; "
                                 f"available: {available_rules()}")
        if self.dataset not in _DATASETS:
            raise ValueError(f"unknown dataset '{self.dataset}'")
        if self.model not in _MODELS:
            raise ValueError(f"unknown model '{self.model}'")
        if self.num_steps <= 0:
            raise ValueError("num_steps must be positive")
        if self.eval_every <= 0:
            raise ValueError("eval_every must be positive")
        for count in (self.num_attacking_workers, self.num_attacking_servers):
            if count is not None and count < 0:
                raise ValueError("attacker counts must be non-negative")
        if self.adversary is not None:
            if self.worker_attack is not None or self.server_attack is not None:
                raise ValueError(
                    "give either an adversary or legacy per-node attacks, "
                    "not both")
            if self.trainer not in ("guanyu", "guanyu_threaded"):
                raise ValueError(
                    "adversaries model the paper's full threat model and "
                    "apply only to the GuanYu trainers; the single-server "
                    "baselines take a worker_attack instead")
        attacks_workers = attacks_servers = False
        for spec, role in ((self.worker_attack, "worker"),
                           (self.server_attack, "server"),
                           (self.adversary, None)):
            if spec is None:
                continue
            names = registry.available(registry.STATELESS if role else None)
            if spec.name not in names:
                raise ValueError(
                    f"unknown {'attack' if role else 'adversary'} "
                    f"'{spec.name}'; available: {names}")
            workers, servers = self._sides(spec)
            if role == "worker" and not workers:
                raise ValueError(f"'{spec.name}' is a server attack, "
                                 f"not a worker attack")
            if role == "server" and not servers:
                raise ValueError(f"'{spec.name}' is a worker attack, "
                                 f"not a server attack")
            attacks_workers |= workers
            attacks_servers |= servers
        if self.num_attacking_workers and not attacks_workers:
            raise ValueError("num_attacking_workers > 0 requires a worker_attack")
        if self.num_attacking_servers and not attacks_servers:
            raise ValueError("num_attacking_servers > 0 requires a server_attack")

        if self.hetero is not None:
            if self.sharding != "iid":
                raise ValueError(
                    "a hetero spec replaces the legacy sharding strategies; "
                    f"leave sharding at 'iid' (got '{self.sharding}')")
            self.hetero.validate(num_workers=self.num_workers)
        if self.external_communication and self.trainer != "vanilla":
            raise ValueError("external_communication models the 'vanilla "
                             "GuanYu' baseline and applies only to trainer "
                             "'vanilla'")
        if self.faults is not None:
            if self.trainer not in ("guanyu", "guanyu_threaded"):
                raise ValueError(
                    "fault schedules require replicated parameter servers; "
                    f"trainer '{self.trainer}' assumes a live trusted server")
            config = self.cluster_config()
            self.faults.validate(
                known_nodes=config.worker_ids() + config.server_ids())
        if self.runtime is not None:
            if self.runtime not in ("batched", "cluster"):
                raise ValueError(f"unknown runtime '{self.runtime}'; the "
                                 f"explicit runtimes are 'batched' and "
                                 f"'cluster' (absent means the trainer's "
                                 f"legacy default)")
            if self.runtime == "cluster" and self.trainer != "guanyu_threaded":
                raise ValueError(
                    "runtime 'cluster' runs the wall-clock cluster protocol "
                    "as real OS processes and requires trainer "
                    f"'guanyu_threaded' (got '{self.trainer}')")
            if self.runtime == "batched":
                from repro.batch import spec_supports_batching  # lazy: cycle
                if not spec_supports_batching(self):
                    raise ValueError(
                        f"runtime 'batched' requires trainer 'guanyu' and a "
                        f"replica-batchable dense model (got trainer "
                        f"'{self.trainer}', model '{self.model}')")
        if self.kernels is not None:
            from repro.kernels import available_backends  # lazy: cycle
            if self.kernels not in available_backends():
                raise ValueError(
                    f"unknown kernel backend '{self.kernels}'; available: "
                    f"{list(available_backends())}")
            if self.runtime == "cluster":
                raise ValueError(
                    "runtime 'cluster' spawns one OS process per node and "
                    "does not propagate an in-process kernel selection; "
                    "set the REPRO_KERNEL_BACKEND environment variable "
                    "instead")
        if self.trainer == "guanyu_threaded":
            # The threaded runtime runs on the real wall clock: delay/cost
            # models do not apply, and silently ignoring them would let two
            # identical runs hash to different store keys.
            if (self.delay_model != "uniform" or self.delay_kwargs
                    or self.cost_model != "grid5000"):
                raise ValueError(
                    "trainer 'guanyu_threaded' runs on the real clock and "
                    "ignores delay/cost models; leave them at their defaults "
                    "(its knobs are 'jitter' and 'quorum_timeout')")
        elif self.jitter != 0.0 or self.quorum_timeout != 60.0:
            raise ValueError("'jitter' and 'quorum_timeout' apply only to "
                             "trainer 'guanyu_threaded'; simulated trainers "
                             "take a delay_model instead")

        if self.trainer in ("guanyu", "guanyu_threaded"):
            config = self.cluster_config()  # raises on n < 3f + 3 etc.
            if self.resolved_num_attacking_workers() > config.num_byzantine_workers:
                raise ValueError("more attacking workers than declared "
                                 "Byzantine workers")
            if self.resolved_num_attacking_servers() > config.num_byzantine_servers:
                raise ValueError("more attacking servers than declared "
                                 "Byzantine servers")
            gradient_rule = get_rule(self.gradient_rule,
                                     num_byzantine=config.num_byzantine_workers)
            if gradient_rule.minimum_inputs() > config.gradient_quorum:
                raise ValueError(
                    f"gradient rule '{self.gradient_rule}' with "
                    f"f̄={config.num_byzantine_workers} needs at least "
                    f"{gradient_rule.minimum_inputs()} inputs but the gradient "
                    f"quorum is {config.gradient_quorum}")
            model_rule = get_rule(self.model_rule,
                                  num_byzantine=config.num_byzantine_servers)
            if model_rule.minimum_inputs() > config.model_quorum:
                raise ValueError(
                    f"model rule '{self.model_rule}' with "
                    f"f={config.num_byzantine_servers} needs at least "
                    f"{model_rule.minimum_inputs()} inputs but the model "
                    f"quorum is {config.model_quorum}")
        else:  # single trusted parameter server
            if self.num_workers <= 0:
                raise ValueError("num_workers must be positive")
            if self.resolved_num_attacking_workers() > self.num_workers:
                raise ValueError("cannot have more attacking workers than workers")
            # Knobs the single-server trainers ignore must stay at their
            # defaults — otherwise the store would record (and hash) a rule
            # the run never used.
            if self.trainer == "single_server_krum" \
                    and self.gradient_rule != "multi_krum":
                raise ValueError("trainer 'single_server_krum' always "
                                 "aggregates with multi_krum; use trainer "
                                 "'vanilla' to choose a gradient rule")
            if self.model_rule != "median":
                raise ValueError(f"trainer '{self.trainer}' has a single "
                                 f"parameter server and never aggregates "
                                 f"models; leave model_rule at 'median'")
            gradient_rule = get_rule(self.gradient_rule,
                                     num_byzantine=self.declared_byzantine_workers)
            if gradient_rule.minimum_inputs() > self.num_workers:
                raise ValueError(
                    f"gradient rule '{self.gradient_rule}' with "
                    f"f̄={self.declared_byzantine_workers} needs at least "
                    f"{gradient_rule.minimum_inputs()} inputs but only "
                    f"{self.num_workers} workers respond")
            if self.server_attack is not None:
                raise ValueError(f"trainer '{self.trainer}' assumes a trusted "
                                 f"parameter server; remove the server attack")
            if self.trainer == "single_server_krum":
                minimum = 2 * self.declared_byzantine_workers + 3
                if self.num_workers < minimum:
                    raise ValueError(
                        f"Multi-Krum with f={self.declared_byzantine_workers} "
                        f"needs at least {minimum} workers")
        return self

    # ------------------------------------------------------------------ #
    # Serialisation and hashing
    # ------------------------------------------------------------------ #
    def replace(self, **overrides) -> "ScenarioSpec":
        """A copy with ``overrides`` applied (attack fields are coerced)."""
        unknown = set(overrides).difference(SCENARIO_FIELDS)
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)} "
                             f"(check grid axis names)")
        return dataclasses.replace(self, **overrides)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form, equal under ``==`` to ``dataclasses.asdict``.

        Built field by field: ``asdict`` deep-copies every value, and
        ``spec_hash()`` (every put, resume lookup and dedupe) pays for it.
        Nested containers are still copies, never the spec's own.
        """
        payload = {name: getattr(self, name) for name in SCENARIO_FIELDS}
        for name in _THREAT_FIELDS:
            threat = payload[name]
            if threat is not None:
                payload[name] = {"name": threat.name,
                                 "kwargs": copy.deepcopy(threat.kwargs)}
        payload["delay_kwargs"] = dict(self.delay_kwargs)
        # Canonical compact form (defaulted event fields omitted) so that
        # equal schedules serialise — and therefore hash — identically.
        payload["faults"] = self.faults.to_dict() if self.faults else None
        payload["hetero"] = self.hetero.to_dict() if self.hetero else None
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ScenarioSpec":
        unknown = set(payload).difference(SCENARIO_FIELDS)
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
        return cls(**payload)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    def _content_hash(self, *excluded: str) -> str:
        """SHA-256 over the canonical JSON of the spec minus ``excluded``.

        The one statement of the absent≡legacy rule: an absent ``faults``
        schedule, ``adversary``, ``hetero`` spec, ``runtime`` or
        ``kernels`` selection is left out of the payload, so stores filled
        before the fault, adversary, heterogeneity, cluster or kernel
        engines existed stay valid, and a hash changes iff the field does.
        """
        payload = self.to_dict()
        for key in excluded:
            del payload[key]
        for key in ("faults", "adversary", "hetero", "runtime", "kernels"):
            if payload[key] is None:
                del payload[key]
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def spec_hash(self) -> str:
        """Content address: SHA-256 over the canonical JSON of the spec.

        The ``name`` is a pure label and is excluded, so equal
        configurations share one cache entry regardless of how a campaign
        or harness chose to name them.  Optional fields follow the
        absent≡legacy rule of :meth:`_content_hash`.
        """
        return self._content_hash("name")

    def batch_group_hash(self) -> str:
        """Content address ignoring ``name`` *and* ``seed``.

        Scenarios sharing this hash are replicas of one configuration that
        differ only in their random seed — exactly the axis the batched
        multi-replica runtime (:mod:`repro.batch`) vectorises over.  The
        campaign engine groups pending scenarios by this hash when
        ``batch_seeds`` is requested.
        """
        return self._content_hash("name", "seed")

    # ------------------------------------------------------------------ #
    # ExperimentScale interoperability (lazy imports: see module docstring)
    # ------------------------------------------------------------------ #
    @classmethod
    def from_scale(cls, scale, **overrides) -> "ScenarioSpec":
        """Build a spec from a legacy :class:`ExperimentScale`."""
        base = dict(
            num_workers=scale.num_workers,
            num_servers=scale.num_servers,
            declared_byzantine_workers=scale.declared_byzantine_workers,
            declared_byzantine_servers=scale.declared_byzantine_servers,
            num_steps=scale.num_steps,
            eval_every=scale.eval_every,
            batch_size=scale.batch_size,
            dataset=scale.dataset,
            model=scale.model,
            learning_rate=scale.learning_rate,
            dataset_size=scale.dataset_size,
            image_size=scale.image_size,
            seed=scale.seed,
            max_eval_samples=scale.max_eval_samples,
            billed_parameters=scale.billed_parameters,
        )
        base.update(overrides)
        return cls(**base)

    def to_scale(self):
        """The :class:`ExperimentScale` view used to build the workload."""
        from repro.experiments.common import ExperimentScale

        return ExperimentScale(
            num_workers=self.num_workers,
            num_servers=self.num_servers,
            declared_byzantine_workers=self.declared_byzantine_workers,
            declared_byzantine_servers=self.declared_byzantine_servers,
            num_steps=self.num_steps,
            eval_every=self.eval_every,
            batch_size=self.batch_size,
            dataset=self.dataset,
            model=self.model,
            learning_rate=self.learning_rate,
            dataset_size=self.dataset_size,
            image_size=self.image_size,
            seed=self.seed,
            max_eval_samples=self.max_eval_samples,
            billed_parameters=self.billed_parameters,
        )


#: :class:`ScenarioSpec`'s field names in declaration order — the keys of
#: ``to_dict`` and the names ``from_dict``, ``replace`` and
#: ``ResultStore.query`` accept
SCENARIO_FIELDS = tuple(f.name for f in dataclasses.fields(ScenarioSpec))
_THREAT_FIELDS = ("worker_attack", "server_attack", "adversary")


# --------------------------------------------------------------------------- #
# Campaign specification
# --------------------------------------------------------------------------- #
def ensure_unique_names(scenarios: Sequence["ScenarioSpec"]) -> None:
    """Raise if two scenarios share a name (names key campaign results)."""
    counts = collections.Counter(scenario.name for scenario in scenarios)
    duplicates = sorted(name for name, count in counts.items() if count > 1)
    if duplicates:
        raise ValueError(f"duplicate scenario names: {duplicates}")


def _axis_entries(axis: str, values: Sequence) -> List[tuple]:
    """Normalise one grid axis into ``(label, patch)`` entries.

    Scalar values patch the field named by the axis (label ``field=value``);
    dict values are multi-field patches and the axis name is just a label
    (each dict may carry a ``"_name"`` key used for scenario naming).
    """
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"grid axis '{axis}' must map to a list of values, "
                         f"got {type(values).__name__}")
    entries = []
    for index, value in enumerate(values):
        if isinstance(value, dict):
            patch = {key: val for key, val in value.items() if key != "_name"}
            label = str(value.get("_name", f"{axis}{index}"))
        else:
            patch = {axis: value}
            label = f"{axis}={value}"
        entries.append((label, patch))
    if not entries:
        raise ValueError(f"grid axis '{axis}' has no values")
    return entries


@dataclass
class CampaignSpec:
    """A named family of scenarios: explicit list, or base + grid/zip axes.

    ``grid`` axes are combined as a cartesian product; ``zip_axes`` lists
    (JSON key ``"zip"``) must share one length and are bundled element-wise
    into a single extra axis — use them for coupled parameters such as
    ``num_workers`` and the admissible ``declared_byzantine_workers``.
    """

    name: str = "campaign"
    base: ScenarioSpec = field(default_factory=ScenarioSpec)
    grid: Dict[str, List] = field(default_factory=dict)
    zip_axes: Dict[str, List] = field(default_factory=dict)
    scenarios: List[ScenarioSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.scenarios and (self.grid or self.zip_axes):
            raise ValueError("give either an explicit scenario list or "
                             "grid/zip axes, not both")
        self.scenarios = [scenario if isinstance(scenario, ScenarioSpec)
                          else ScenarioSpec.from_dict(scenario)
                          for scenario in self.scenarios]
        if isinstance(self.base, dict):
            self.base = ScenarioSpec.from_dict(self.base)

    # ------------------------------------------------------------------ #
    def _zip_axis(self) -> Optional[List[tuple]]:
        if not self.zip_axes:
            return None
        lengths = {len(values) for values in self.zip_axes.values()}
        if len(lengths) != 1:
            raise ValueError(f"zip axes must share one length, got "
                             f"{sorted(lengths)}")
        per_axis = {axis: _axis_entries(axis, values)
                    for axis, values in self.zip_axes.items()}
        bundled = []
        for index in range(lengths.pop()):
            labels, patch = [], {}
            for axis in self.zip_axes:
                label, axis_patch = per_axis[axis][index]
                labels.append(label)
                patch.update(axis_patch)
            bundled.append(("-".join(labels), patch))
        return bundled

    def expand(self, on_invalid: str = "raise") -> List[ScenarioSpec]:
        """Expand to a validated scenario list.

        ``on_invalid="skip"`` silently drops inadmissible grid cells (e.g. a
        cluster size that cannot host the declared Byzantine count);
        ``"raise"`` propagates the validation error.
        """
        if on_invalid not in ("raise", "skip"):
            raise ValueError("on_invalid must be 'raise' or 'skip'")
        if self.scenarios:
            expanded = list(self.scenarios)
        else:
            axes = [_axis_entries(axis, values)
                    for axis, values in self.grid.items()]
            zipped = self._zip_axis()
            if zipped is not None:
                axes.append(zipped)
            expanded = []
            if not axes:
                expanded.append(self.base.replace())
            else:
                for combo in itertools.product(*axes):
                    patch: Dict[str, Any] = {}
                    for _, axis_patch in combo:
                        patch.update(axis_patch)
                    patch.setdefault("name", "-".join(label for label, _ in combo))
                    expanded.append(self.base.replace(**patch))

        valid = []
        for scenario in expanded:
            try:
                valid.append(scenario.validate())
            except ValueError:
                if on_invalid == "raise":
                    raise
        ensure_unique_names(valid)
        return valid

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "base": self.base.to_dict(),
            "grid": self.grid,
            "zip": self.zip_axes,
            "scenarios": [scenario.to_dict() for scenario in self.scenarios],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CampaignSpec":
        known = {"name", "base", "grid", "zip", "scenarios"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown campaign fields: {sorted(unknown)}")
        return cls(
            name=payload.get("name", "campaign"),
            base=ScenarioSpec.from_dict(payload.get("base", {})),
            grid=dict(payload.get("grid", {})),
            zip_axes=dict(payload.get("zip", {})),
            scenarios=[ScenarioSpec.from_dict(entry)
                       for entry in payload.get("scenarios", [])],
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_json_file(cls, path) -> "CampaignSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))
