"""Per-node state machines: workers and parameter servers.

Nodes are deliberately free of any networking code: they expose pure
"receive vectors → produce vector" methods, and the trainers / runtimes are
responsible for moving those vectors across the (simulated or threaded)
network.  This is the same separation the original implementation uses
between the TensorFlow graph (local computation) and the gRPC plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.adversary.base import AttackContext, ServerAttack, WorkerAttack
from repro.aggregation.base import Aggregate, GradientAggregationRule
from repro.aggregation.krum import pairwise_squared_distances_batched
from repro.data.loader import DataLoader
from repro.network.message import MessageKind
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module
from repro.nn.plan import dense_plan
from repro.nn.schedules import ConstantSchedule, LearningRateSchedule
from repro.tensor import Tensor


@dataclass
class GradientResult:
    """Outcome of one worker gradient computation."""

    gradient: np.ndarray
    loss: float
    batch_size: int


def apply_worker_attack(attack: Optional[WorkerAttack],
                        rng: np.random.Generator, result: GradientResult,
                        step: int, peer_gradients: Sequence[np.ndarray] = (),
                        recipient: Optional[str] = None,
                        model: Optional[np.ndarray] = None) -> Optional[np.ndarray]:
    """The gradient a (possibly Byzantine) worker actually sends.

    The per-recipient attack path, shared by
    :meth:`WorkerNode.outgoing` and the batched multi-replica
    runtime (:mod:`repro.batch`, lane by lane), so both produce
    bit-identical corruption for the same attack state and generator; the
    batched runtime asks a :attr:`~repro.adversary.base.WorkerAttack.pure`
    attack once per step on the lane stack instead.  ``model`` is the
    parameter vector the gradient was computed at — observable by the
    omniscient adversaries of :mod:`repro.adversary`.
    """
    if attack is None:
        return result.gradient
    context = AttackContext(step=step, honest_value=result.gradient,
                            peer_values=list(peer_gradients), rng=rng,
                            recipient=recipient, model=model)
    return attack.corrupt_gradient(context)


def poison_worker_batch(attack: Optional[WorkerAttack],
                        rng: np.random.Generator, aggregated: np.ndarray,
                        step: int, features: np.ndarray, labels: np.ndarray):
    """Run a worker attack's data-poisoning hook on one mini-batch.

    Shared by :meth:`WorkerNode.compute_gradient` and the batched runtime;
    honest workers and attacks that do not declare
    :attr:`~repro.adversary.base.WorkerAttack.poisons` pass through
    unchanged.
    """
    if attack is None or not attack.poisons:
        return features, labels
    context = AttackContext(step=step, honest_value=aggregated, rng=rng)
    return attack.poison_batch(features, labels, context)


def apply_server_attack(attack: Optional[ServerAttack],
                        rng: np.random.Generator, honest: np.ndarray,
                        step: int,
                        recipient: Optional[str] = None) -> Optional[np.ndarray]:
    """The model a (possibly Byzantine) server actually sends.

    Shared by :meth:`ServerNode.outgoing` and the batched runtime;
    see :func:`apply_worker_attack`.
    """
    if attack is None:
        return honest
    context = AttackContext(step=step, honest_value=honest, rng=rng,
                            recipient=recipient)
    return attack.corrupt_model(context)


class WorkerNode:
    """A worker: aggregates server models with ``M`` and computes gradients.

    Parameters
    ----------
    node_id:
        Identifier such as ``"worker/3"``.
    model:
        The model whose gradients this worker computes, at parameters it
        is handed: a dense model (``softmax``, ``mlp``) is read once for
        its :class:`~repro.nn.plan.BatchedDenseStack` and computes through
        that plan at R = 1; a convolutional one, which has no plan, is
        this worker's own copy for the autograd tape.
    loader:
        Mini-batch source for this worker's data shard.
    model_aggregator:
        The GAR applied to the ``q`` received parameter vectors (the
        coordinate-wise median in GuanYu).
    attack:
        Optional :class:`WorkerAttack` making this worker Byzantine.
    seed:
        Seed of the worker-local random generator (attack noise).
    local_steps:
        Local gradient computations per protocol round (heterogeneous
        worker profiles).  With ``k > 1`` the worker walks ``k`` local SGD
        steps from the aggregated model (learning rate from ``schedule``)
        and submits the *mean* gradient along that trajectory; ``k = 1``
        is bit-identical to the legacy single gradient.
    schedule:
        Learning-rate schedule for the local steps (required when
        ``local_steps > 1``; the trainers pass their own schedule so the
        local walk matches the server update rule).
    """

    def __init__(self, node_id: str, model: Module, loader: DataLoader,
                 model_aggregator: GradientAggregationRule,
                 attack: Optional[WorkerAttack] = None, seed: int = 0,
                 local_steps: int = 1,
                 schedule: Optional[LearningRateSchedule] = None) -> None:
        if local_steps < 1:
            raise ValueError("local_steps must be >= 1")
        if local_steps > 1 and schedule is None:
            raise ValueError("local_steps > 1 needs a learning-rate schedule")
        self.node_id = node_id
        self.loader = loader
        self.model_aggregator = model_aggregator
        self.attack = attack
        self.local_steps = local_steps
        self.schedule = schedule
        self._rng = np.random.default_rng(seed)
        self.last_result: Optional[GradientResult] = None
        self._last_aggregated: Optional[np.ndarray] = None
        self._plan = dense_plan(model)
        if self._plan is not None:
            self._forward_backward = self._plan_forward_backward
        else:
            self._model = model
            self._criterion = CrossEntropyLoss()
            self._forward_backward = self._tape_forward_backward

    @property
    def is_byzantine(self) -> bool:
        return self.attack is not None

    # ------------------------------------------------------------------ #
    def aggregate_models(self, parameter_vectors: Sequence[np.ndarray]) -> np.ndarray:
        """Aggregate the first-``q`` received parameter vectors with ``M``."""
        return self.model_aggregator(parameter_vectors)

    def compute_gradient(self, parameter_vectors: Sequence[np.ndarray],
                         step: int) -> GradientResult:
        """Run one honest gradient computation at the aggregated model.

        This is the worker side of phase 1: ``g = ∇̂L(M(θ^(a) ... θ^(b)))``.
        Byzantine corruption, if any, is applied afterwards by
        :meth:`outgoing` so that data-poisoning attacks (which act
        on the batch, not the message) are still routed through here.
        """
        aggregated = self.aggregate_models(parameter_vectors)
        self._last_aggregated = aggregated
        if self.local_steps == 1:
            gradient, loss, batch_size = self._one_gradient(aggregated, step)
            result = GradientResult(gradient=gradient, loss=loss,
                                    batch_size=batch_size)
            self.last_result = result
            return result

        # Heterogeneous profile: walk ``k`` local SGD steps and submit the
        # mean gradient along the trajectory (normalised so the server-side
        # update has the same scale as a single gradient).  The batched
        # runtime replays this loop op-for-op (see repro.batch.trainer).
        eta = self.schedule(step)
        theta = aggregated
        gradient_sum = np.zeros_like(aggregated)
        losses = []
        total_samples = 0
        for _ in range(self.local_steps):
            gradient, loss, batch_size = self._one_gradient(theta, step)
            gradient_sum += gradient
            losses.append(loss)
            total_samples += batch_size
            theta = theta - eta * gradient
        result = GradientResult(gradient=gradient_sum / self.local_steps,
                                loss=float(np.mean(losses)),
                                batch_size=total_samples)
        self.last_result = result
        return result

    def _one_gradient(self, parameters: np.ndarray, step: int):
        """One forward/backward at ``parameters`` on the next mini-batch."""
        features, labels = self.loader.next_batch()
        features, labels = poison_worker_batch(self.attack, self._rng,
                                               parameters, step,
                                               features, labels)
        gradient, loss = self._forward_backward(parameters, features, labels)
        return gradient, loss, len(labels)

    def _plan_forward_backward(self, parameters: np.ndarray,
                               features: np.ndarray, labels: np.ndarray):
        losses, gradients = self._plan.forward_backward(
            parameters[None], features[None],
            np.asarray(labels, dtype=np.int64)[None])
        return gradients[0], float(losses[0])

    def _tape_forward_backward(self, parameters: np.ndarray,
                               features: np.ndarray, labels: np.ndarray):
        self._model.set_flat_parameters(parameters)
        self._model.zero_grad()
        loss = self._criterion(self._model(Tensor(features)), labels)
        loss.backward()
        return self._model.get_flat_gradient(), float(loss.item())

    def receive(self, kind: MessageKind, payloads: Sequence[np.ndarray],
                step: int) -> GradientResult:
        """Reduce a quorum of models, the one kind a worker receives: a
        gradient at their aggregate (:meth:`compute_gradient`)."""
        return self.compute_gradient(payloads, step)

    def outgoing(self, step: int, recipient: Optional[str] = None,
                 peers: Sequence[np.ndarray] = ()) -> Optional[np.ndarray]:
        """The step's gradient (:attr:`last_result`) as sent to a server.

        Honest workers send the computed gradient unchanged; Byzantine
        workers route it through their attack, which may read the honest
        ``peers`` gradients and may return ``None`` for silence.
        """
        model = self._last_aggregated if self.attack is not None else None
        return apply_worker_attack(self.attack, self._rng, self.last_result,
                                   step, peer_gradients=peers,
                                   recipient=recipient, model=model)


class ServerNode:
    """A parameter server: holds a model replica and applies robust updates.

    Parameters
    ----------
    node_id:
        Identifier such as ``"ps/0"``.
    parameters:
        The initial flat parameter vector ``θ_0`` (the same for every
        replica).  The server keeps its model as this one float64 vector,
        :attr:`parameters`, and rebinds it on every update — never writes
        into it — so a vector it has sent stays what it sent.
    gradient_aggregator:
        The GAR ``F`` applied to the ``q̄`` received gradients (Multi-Krum).
    model_aggregator:
        The GAR ``M`` applied to the ``q`` received models in phase 3
        (coordinate-wise median).
    schedule:
        Learning-rate schedule ``η_t``.
    attack:
        Optional :class:`ServerAttack` making this server Byzantine.
    """

    def __init__(self, node_id: str, parameters: np.ndarray,
                 gradient_aggregator: GradientAggregationRule,
                 model_aggregator: GradientAggregationRule,
                 schedule: Optional[LearningRateSchedule] = None,
                 attack: Optional[ServerAttack] = None, seed: int = 0) -> None:
        self.node_id = node_id
        self.parameters = np.array(parameters, dtype=np.float64)
        self.gradient_aggregator = gradient_aggregator
        self.model_aggregator = model_aggregator
        self.schedule = schedule if schedule is not None else ConstantSchedule(0.001)
        self.attack = attack
        self._rng = np.random.default_rng(seed)
        #: the rule's call on the last gradient quorum applied, which a
        #: decision record reads (never set on a Byzantine server)
        self.last_aggregate: Optional[Aggregate] = None

    @property
    def is_byzantine(self) -> bool:
        return self.attack is not None

    # ------------------------------------------------------------------ #
    def current_parameters(self) -> np.ndarray:
        """The server's current flat parameter vector θ_t^(i)."""
        return self.parameters

    def outgoing(self, step: int, recipient: Optional[str] = None,
                 peers: Sequence[np.ndarray] = ()) -> Optional[np.ndarray]:
        """Model sent to a recipient (worker or fellow server).

        Honest servers always send their true parameters; Byzantine servers
        route them through their attack (possibly per-recipient equivocation
        or silence), which reads no ``peers``.
        """
        return apply_server_attack(self.attack, self._rng,
                                   self.current_parameters(), step,
                                   recipient=recipient)

    def receive(self, kind: MessageKind, payloads: Sequence[np.ndarray],
                step: int) -> None:
        """Reduce a quorum of ``kind``: gradients are aggregated and applied
        (phase 2), models merged (phase 3).

        A Byzantine server installs nothing — its attack always perturbs
        θ0 — whichever engine runs it (``docs/adversaries.md``).
        """
        if self.is_byzantine:
            return
        if kind is MessageKind.GRADIENT_TO_SERVER:
            self.apply_gradients(payloads, step)
        else:
            self.merge_models(payloads)

    def apply_gradients(self, gradients: Sequence[np.ndarray], step: int) -> np.ndarray:
        """Phase 2: aggregate gradients with ``F`` and apply the SGD update.

        Returns the locally updated parameter vector (before the
        inter-server median of phase 3).
        """
        self.last_aggregate = self.gradient_aggregator.decide_batched(
            np.stack(gradients)[None])
        learning_rate = self.schedule(step)
        self.parameters = self.parameters \
            - learning_rate * self.last_aggregate.output[0]
        return self.parameters

    def merge_models(self, parameter_vectors: Sequence[np.ndarray]) -> np.ndarray:
        """Phase 3: install the coordinate-wise median of received models."""
        self.parameters = np.asarray(self.model_aggregator(parameter_vectors),
                                     dtype=np.float64)
        return self.parameters

    def learning_rate(self, step: int) -> float:
        """Learning rate ``η_t`` for the given step."""
        return self.schedule(step)


def max_pairwise_distance(vectors: Sequence[np.ndarray]) -> float:
    """``max_{a,b} ||v_a − v_b||`` — the server spread tracked by the theory."""
    vectors = [np.asarray(v, dtype=np.float64).reshape(-1) for v in vectors]
    if len(vectors) < 2:
        return 0.0
    stacked = np.stack(vectors)
    squared = pairwise_squared_distances_batched(stacked[None])[0]
    # The Gram trick finds the extreme pair in one matmul, but its
    # cancellation error (~1e-8 on unit-scale vectors) would report a noise
    # floor where servers agree exactly — and exact agreement after the
    # phase-3 median is precisely what the contraction argument predicts.
    # Re-evaluating the single winning pair directly keeps the result exact.
    index_a, index_b = np.unravel_index(int(np.argmax(squared)), squared.shape)
    return float(np.linalg.norm(stacked[index_a] - stacked[index_b]))
