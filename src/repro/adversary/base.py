"""Core abstractions of the threat model: one adversary, two kinds of behaviour.

The paper proves resilience against a single *omniscient, colluding,
adaptive* adversary that controls every Byzantine node at once.  It is not
omnipotent: it only decides what a Byzantine node *sends*; it never
modifies other nodes.

* **Stateless per-call behaviours** (:class:`WorkerAttack` /
  :class:`ServerAttack`) are pure transforms of the one gradient or model a
  node is about to send.  :class:`AttackContext` carries what the
  omniscient adversary knows at that moment (the honest value, the peer
  values it can observe, the step).  These two classes are also the
  per-node seam every runtime calls.
* **Stateful coordinated behaviours** (:class:`Adversary`) own **all**
  Byzantine nodes of a run, observe everything the threat model allows —
  the honest gradients of the round, the current model, the deployed GAR
  and its declared ``f`` (:class:`RunBinding` / :class:`RoundObservation`)
  — and emit one *coordinated* corruption plan per round
  (:class:`RoundPlan`).

Every run is driven by exactly one :class:`Adversary`; stateless
behaviours are lifted into one by :class:`StatelessAdversary`.

Determinism contract
--------------------
Every random draw an adversary makes comes from ``RoundObservation.rng``,
a generator freshly derived from ``(seed, step)`` — never from a stream
shared across rounds or nodes.  A round plan is therefore a pure function
of ``(seed, step, observed honest gradients, model)``, which makes the
emitted corruption bit-identical no matter which runtime drives the seam:
the sequential trainer, the threaded runtime (where Byzantine node threads
race each other) and the batched multi-replica runtime all obtain the same
bytes for the same observation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np


@dataclass
class AttackContext:
    """Information available to the (omniscient) adversary when attacking.

    Attributes
    ----------
    step:
        Current learning step ``t``.
    honest_value:
        The vector (gradient or parameter vector) the node would send if it
        were honest.
    peer_values:
        Vectors the adversary can observe from other nodes at this step
        (e.g. the honest workers' gradients), used by omniscient attacks such
        as "a little is enough".
    rng:
        Random generator owned by the adversary (seeded per experiment).
    recipient:
        Identifier of the node the message is being sent to; equivocation
        attacks send different values to different recipients.
    model:
        The parameter vector the sending node currently holds (the model a
        Byzantine worker computed its honest gradient at) — part of the
        paper's omniscient observation set, exposed to the stateful
        adversaries via ``RoundObservation.model``.  The built-in
        strategies do not consume it yet; it costs nothing to pass (the
        trainers hand over a vector they already hold).  ``None`` where the
        caller has no model in scope.
    """

    step: int
    honest_value: np.ndarray
    peer_values: Sequence[np.ndarray] = field(default_factory=list)
    rng: np.random.Generator = field(default_factory=np.random.default_rng)
    recipient: Optional[str] = None
    model: Optional[np.ndarray] = None


class WorkerAttack:
    """A Byzantine worker behaviour.

    Subclasses implement :meth:`corrupt_gradient`, mapping the honest
    gradient the worker computed to the gradient actually sent to a given
    parameter server.  Returning ``None`` means "stay silent towards that
    recipient".
    """

    name: str = "abstract_worker_attack"
    kind = "worker-attack"
    attacks_workers = True
    attacks_servers = False

    def corrupt_gradient(self, context: AttackContext) -> Optional[np.ndarray]:
        raise NotImplementedError

    def poison_batch(self, features: np.ndarray, labels: np.ndarray,
                     context: AttackContext):
        """Optionally poison the local training batch (data poisoning).

        The default is a no-op; :class:`LabelFlipPoisoning` overrides it.
        Returns the possibly-modified ``(features, labels)``.
        """
        return features, labels

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}()"


class ServerAttack:
    """A Byzantine parameter-server behaviour.

    Subclasses implement :meth:`corrupt_model`, mapping the model the server
    would honestly send to the model actually sent to a given recipient
    (worker or fellow server).  Returning ``None`` means silence.
    """

    name: str = "abstract_server_attack"
    kind = "server-attack"
    attacks_workers = False
    attacks_servers = True

    def corrupt_model(self, context: AttackContext) -> Optional[np.ndarray]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}()"


@dataclass
class RunBinding:
    """Everything the adversary knows about a run before it starts.

    This is the static half of the paper's omniscience: the adversary reads
    the deployment — which nodes it controls, which GAR the servers run and
    the ``f`` it is configured for, the quorum sizes — at bind time.  The
    dynamic half (gradients, models) arrives per round as a
    :class:`RoundObservation`.
    """

    seed: int
    worker_ids: List[str]
    server_ids: List[str]
    #: the Byzantine nodes this adversary controls, in cluster-index order
    byzantine_workers: List[str]
    byzantine_servers: List[str]
    gradient_rule_name: str = "multi_krum"
    #: the *actual* GAR instance the correct servers aggregate with
    gradient_rule: Optional[object] = None
    declared_byzantine_workers: int = 0
    declared_byzantine_servers: int = 0
    gradient_quorum: int = 0
    model_quorum: int = 0

    def honest_workers(self) -> List[str]:
        """Worker ids the adversary does *not* control, in cluster order."""
        controlled = set(self.byzantine_workers)
        return [wid for wid in self.worker_ids if wid not in controlled]


@dataclass
class RoundObservation:
    """What the omniscient adversary sees in one protocol round.

    ``honest_gradients`` are the correct workers' gradients of the round in
    cluster-index order (empty when the runtime cannot expose them — see
    the sequential-fallback notes in ``docs/adversaries.md``); ``model`` is
    the parameter vector the observing Byzantine worker computed its honest
    gradient at (``None`` under the threaded runtime's observation board,
    where exposing one racing thread's model would make plans
    scheduler-dependent).  ``rng`` is derived from ``(seed, step)`` so
    draws are independent of call order — see the module docstring.
    """

    step: int
    honest_gradients: List[np.ndarray] = field(default_factory=list)
    model: Optional[np.ndarray] = None
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    def honest_mean(self) -> Optional[np.ndarray]:
        if not self.honest_gradients:
            return None
        return np.stack(self.honest_gradients).mean(axis=0)


#: marker distinguishing "behave honestly" from "stay silent" (``None``)
_HONEST = object()


@dataclass
class RoundPlan:
    """The adversary's decision for one round.

    ``payloads`` maps a Byzantine worker id to the vector it submits
    (``None`` = silence).  Workers absent from the map fall back to
    ``fallback_scale * honest_gradient`` when a scale is set, or to honest
    behaviour otherwise — the fallback is what keeps an adversary dangerous
    on rounds where no honest gradients were observable.
    """

    payloads: Dict[str, Optional[np.ndarray]] = field(default_factory=dict)
    fallback_scale: Optional[float] = None

    def payload_for(self, node_id: str,
                    honest_value: np.ndarray) -> Optional[np.ndarray]:
        payload = self.payloads.get(node_id, _HONEST)
        if payload is _HONEST:
            if self.fallback_scale is not None:
                return self.fallback_scale * honest_value
            return honest_value
        return payload


HONEST_PLAN = RoundPlan()


class Adversary:
    """A stateful entity controlling every Byzantine node of one run.

    Subclasses implement :meth:`plan_round` (coordinated adversaries) or
    the per-call hooks (:meth:`worker_gradient` / :meth:`server_model`,
    used when :attr:`requires_observation` is ``False``).  Instances are
    single-run: :meth:`bind` installs the run's :class:`RunBinding` and is
    called exactly once by the runtime wiring.
    """

    name: str = "abstract_adversary"
    kind = "adversary"
    #: whether the adversary needs the round's honest gradients before it
    #: can corrupt (drives the observation plumbing in the runtimes)
    requires_observation: bool = True
    #: whether this adversary corrupts worker gradients / server models
    attacks_workers: bool = True
    attacks_servers: bool = False

    def __init__(self) -> None:
        self.binding: Optional[RunBinding] = None

    def bind(self, binding: RunBinding) -> None:
        """Attach the run's static knowledge; one binding per instance."""
        if self.binding is not None:
            raise RuntimeError(
                f"adversary '{self.name}' is already bound to a run; "
                f"build a fresh instance per run")
        self.binding = binding

    # ------------------------------------------------------------------ #
    # Coordinated path (requires_observation = True)
    # ------------------------------------------------------------------ #
    def plan_round(self, observation: RoundObservation) -> RoundPlan:
        """Decide what every controlled worker submits this round."""
        raise NotImplementedError

    def observation_needed(self, step: int) -> bool:
        """Whether this round's plan actually depends on the observation.

        The threaded runtime's observation board blocks Byzantine threads
        until every honest gradient of the step is published; time-coupled
        adversaries override this to skip that wait during their dormant
        windows (where :meth:`plan_round` returns the honest plan no
        matter what was observed).
        """
        return self.requires_observation

    # ------------------------------------------------------------------ #
    # Per-call path (requires_observation = False, e.g. lifted attacks)
    # ------------------------------------------------------------------ #
    def worker_gradient(self,
                        context: AttackContext) -> Optional[np.ndarray]:
        """Gradient a controlled worker sends (per-call adversaries only)."""
        return context.honest_value

    def poison_batch(self, features: np.ndarray, labels: np.ndarray,
                     context: AttackContext):
        """Optional data poisoning hook (mirrors ``WorkerAttack``)."""
        return features, labels

    # ------------------------------------------------------------------ #
    # Server side (never needs the round plan: phase 1 precedes gradients)
    # ------------------------------------------------------------------ #
    def server_model(self, context: AttackContext) -> Optional[np.ndarray]:
        """Model a controlled server sends; default: behave honestly."""
        return context.honest_value

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}()"


class StatelessAdversary(Adversary):
    """Stateless per-node attacks lifted into the adversary interface.

    Up to one attack per side: the paper's adversary controls Byzantine
    workers and Byzantine servers at once, so a worker attack and a server
    attack may be installed together; with neither, every node is honest.
    The lift is deliberately transparent: each attack receives the exact
    :class:`AttackContext` (including the node's own generator) the
    per-node seam hands over, so ``adversary="sign_flip"`` and
    ``worker_attack="sign_flip"`` describe bit-identical runs.
    """

    requires_observation = False

    def __init__(self, worker: Optional[WorkerAttack] = None,
                 server: Optional[ServerAttack] = None) -> None:
        super().__init__()
        for attack, side in ((worker, WorkerAttack), (server, ServerAttack)):
            if attack is not None and not isinstance(attack, side):
                raise TypeError(
                    f"StatelessAdversary lifts a {side.__name__} on this "
                    f"side, got {type(attack).__name__}")
        self.worker = worker
        self.server = server
        self.name = "+".join(attack.name for attack in (worker, server)
                             if attack is not None) or "honest"
        self.attacks_workers = worker is not None
        self.attacks_servers = server is not None

    # A side without an attack controls no node, so its hook is never
    # reached: ``attacks_workers`` / ``attacks_servers`` decide who gets an
    # adapter.
    def worker_gradient(self, context: AttackContext) -> Optional[np.ndarray]:
        return self.worker.corrupt_gradient(context)

    def poison_batch(self, features, labels, context: AttackContext):
        return self.worker.poison_batch(features, labels, context)

    def server_model(self, context: AttackContext) -> Optional[np.ndarray]:
        return self.server.corrupt_model(context)

    def __repr__(self) -> str:  # pragma: no cover
        return f"StatelessAdversary({self.worker!r}, {self.server!r})"
