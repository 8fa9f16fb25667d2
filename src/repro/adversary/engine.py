"""Runtime wiring: drive an :class:`Adversary` through the attack seams.

The trainers and runtimes only know the per-node
:class:`~repro.adversary.base.WorkerAttack` / ``ServerAttack`` seam;
:class:`AdversaryWorkerAttack` / :class:`AdversaryServerAttack` are
adapters installed on each controlled node that route every corruption
query to one shared :class:`AdversaryCoordinator`.

The coordinator owns the per-round plan cache and the synchronisation
needed by the three runtimes:

* **sequential / batched** — the honest gradients of the round arrive
  inside the :class:`~repro.adversary.base.AttackContext` (``peer_values``)
  of the first corruption query; the plan is computed lazily from it;
* **threaded** — Byzantine node threads race the honest ones, so the
  runtime arms an *observation board*: honest workers publish their
  gradients as they compute them and corruption queries block until every
  expected publisher for the step has reported (the in-process equivalent
  of the paper's adversary reading every node's memory).

Plans are cached per step and every random draw is keyed by
``(seed, step)``, so the corruption bytes are independent of thread
scheduling and call order — the engine-level equivalence tests drive the
same adversary through all three wirings and compare bits.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.adversary.base import (
    Adversary,
    AttackContext,
    RoundObservation,
    RoundPlan,
    RunBinding,
    ServerAttack,
    WorkerAttack,
)
from repro.aggregation import get_rule
from repro.obs.tracer import get_tracer

#: callable returning the honest worker ids expected to publish at a step
ExpectedPublishers = Callable[[int], Sequence[str]]

#: plans/boards older than this many steps behind the slowest controlled
#: worker are dropped
_PLAN_RETENTION_STEPS = 4
#: absolute skew bound: a controlled worker lagging (or crashed) more than
#: this many steps behind the newest activity no longer pins retention
_PLAN_HARD_RETENTION_STEPS = 64


class ObservationTimeout(RuntimeError):
    """The observation board never completed for a step (threaded mode)."""


class AdversaryCoordinator:
    """Shared state between the adapter attacks of one adversary run."""

    def __init__(self, adversary: Adversary, binding: RunBinding) -> None:
        adversary.bind(binding)
        self.adversary = adversary
        self.binding = binding
        self._condition = threading.Condition()
        self._plans: Dict[int, RoundPlan] = {}
        self._board: Dict[int, Dict[str, np.ndarray]] = {}
        self._board_enabled = False
        self._expected_fn: Optional[ExpectedPublishers] = None
        self._timeout = 60.0
        #: newest step each controlled worker has queried — retention floor
        self._query_floor: Dict[str, int] = {}
        #: steps whose plan is being computed outside the lock (board mode)
        self._building: set = set()
        #: steps below this were pruned and can never complete on the board
        self._pruned_horizon = -1

    # ------------------------------------------------------------------ #
    # Threaded-runtime observation board
    # ------------------------------------------------------------------ #
    def enable_board(self, expected_fn: ExpectedPublishers,
                     timeout: float = 60.0) -> None:
        """Arm the observation board (threaded runtime only)."""
        with self._condition:
            self._board_enabled = True
            self._expected_fn = expected_fn
            self._timeout = timeout

    def publish(self, worker_id: str, step: int,
                gradient: np.ndarray) -> None:
        """An honest worker's gradient became observable (threaded mode)."""
        with self._condition:
            if not self._board_enabled:
                return  # nobody will ever read (or prune) the copy
            board = self._board.setdefault(step, {})
            board.setdefault(worker_id,
                             np.array(gradient, dtype=np.float64, copy=True))
            # Publishing advances the hard-retention horizon too, so the
            # board stays bounded even while every controlled worker is
            # crashed and nothing is querying.
            self._prune(activity_step=step)
            self._condition.notify_all()

    # ------------------------------------------------------------------ #
    # Plan computation
    # ------------------------------------------------------------------ #
    def _round_rng(self, step: int) -> np.random.Generator:
        entropy = np.random.SeedSequence(
            entropy=[self.binding.seed % (2 ** 63), step])
        return np.random.default_rng(entropy)

    def _observation(self, step: int, honest: List[np.ndarray],
                     model: Optional[np.ndarray]) -> RoundObservation:
        return RoundObservation(
            step=step,
            honest_gradients=honest,
            model=None if model is None else np.asarray(model,
                                                        dtype=np.float64),
            rng=self._round_rng(step))

    def _install(self, step: int, plan: RoundPlan) -> None:
        """Record a finished plan (caller holds the condition lock)."""
        self._plans[step] = plan
        self._board.pop(step, None)
        self._prune()
        tracer = get_tracer()
        if tracer.enabled:
            # Observability only: which controlled nodes act this round and
            # how (explicit payload / silence / scaled-honest fallback).
            explicit = sorted(node_id for node_id, payload
                              in plan.payloads.items() if payload is not None)
            silenced = sorted(node_id for node_id, payload
                              in plan.payloads.items() if payload is None)
            tracer.event("adversary.plan", step=step,
                         adversary=type(self.adversary).__name__,
                         explicit_payloads=explicit, silenced=silenced,
                         fallback_scale=plan.fallback_scale)

    def _prune(self, activity_step: Optional[int] = None) -> None:
        """Drop plans/board entries no controlled worker can still need.

        The retention floor is the *slowest* Byzantine worker's last
        queried step (workers that have not queried yet count as step -1)
        — in the threaded runtime node threads progress at different
        rates, so pruning relative to the newest plan would starve a
        lagging worker whose honest peers never republish.  A worker more
        than the hard-retention bound behind the newest activity (e.g.
        crashed under a fault schedule, so it never queries again) stops
        pinning retention, which keeps memory bounded over arbitrarily
        long runs.
        """
        floors = [self._query_floor.get(worker_id, -1)
                  for worker_id in self.binding.byzantine_workers]
        if not floors:
            return
        newest = max([*floors, activity_step if activity_step is not None
                      else -1])
        floor = max(min(floors), newest - _PLAN_HARD_RETENTION_STEPS)
        threshold = floor - _PLAN_RETENTION_STEPS
        self._pruned_horizon = max(self._pruned_horizon, threshold)
        for stale in [s for s in self._plans if s < threshold]:
            del self._plans[stale]
        for stale in [s for s in self._board if s < threshold]:
            del self._board[stale]

    def _plan_for(self, node_id: str, context: AttackContext) -> RoundPlan:
        step = context.step
        with self._condition:
            floor = self._query_floor.get(node_id, -1)
            if step > floor:
                self._query_floor[node_id] = step
                self._prune()
            plan = self._plans.get(step)
            if plan is not None:
                return plan
            if not self._board_enabled:
                # Sequential/batched wiring: single-threaded per
                # coordinator, so computing under the lock contends with
                # nobody.
                honest = [np.asarray(value, dtype=np.float64)
                          for value in context.peer_values]
                plan = self.adversary.plan_round(
                    self._observation(step, honest, context.model))
                self._install(step, plan)
                return plan
            if step <= self._pruned_horizon:
                # The board for this step fell past the hard-retention
                # horizon (a worker lagging further than any plausible
                # skew): the honest gradients will never be republished,
                # so degrade to the no-observation fallback instead of
                # blocking until a timeout aborts the run.
                plan = self.adversary.plan_round(
                    self._observation(step, [], None))
                self._install(step, plan)
                self._condition.notify_all()
                return plan
            if not self.adversary.observation_needed(step):
                # Dormant round of a time-coupled adversary: the plan is
                # honest regardless of the observation, so don't block on
                # (or copy) the honest gradients at all.
                plan = self.adversary.plan_round(
                    self._observation(step, [], None))
                self._install(step, plan)
                self._condition.notify_all()
                return plan
            expected = list(self._expected_fn(step))
            deadline = time.monotonic() + self._timeout
            honest = None
            while honest is None:
                plan = self._plans.get(step)
                if plan is not None:
                    return plan
                board = self._board.get(step, {})
                if step not in self._building \
                        and all(worker_id in board
                                for worker_id in expected):
                    self._building.add(step)
                    honest = [board[worker_id] for worker_id in expected]
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    if step in self._building:
                        # A peer is computing the plan right now; the wait
                        # is bounded by local compute, not by missing
                        # messages — extend rather than raise spuriously.
                        deadline = time.monotonic() + self._timeout
                        continue
                    missing = [w for w in expected if w not in board]
                    raise ObservationTimeout(
                        f"adversary '{self.adversary.name}' timed out "
                        f"waiting for honest gradients {missing} at step "
                        f"{step}")
                self._condition.wait(timeout=remaining)
        # The (possibly expensive) inner optimisation runs *outside* the
        # lock so honest worker threads can keep publishing; peers
        # querying the same step wait on the `_building` marker.  Board
        # mode deliberately omits the model: whichever Byzantine thread
        # wins the race holds *its own* phase-1 aggregate, and letting the
        # winner's model into the observation would make the plan
        # scheduler-dependent.
        try:
            plan = self.adversary.plan_round(
                self._observation(step, honest, None))
        except BaseException:
            with self._condition:
                self._building.discard(step)
                self._condition.notify_all()
            raise
        with self._condition:
            self._building.discard(step)
            self._install(step, plan)
            self._condition.notify_all()
        return plan

    # ------------------------------------------------------------------ #
    # Adapter entry point
    # ------------------------------------------------------------------ #
    def worker_gradient(self, node_id: str,
                        context: AttackContext) -> Optional[np.ndarray]:
        if not self.adversary.requires_observation:
            return self.adversary.worker_gradient(context)
        plan = self._plan_for(node_id, context)
        return plan.payload_for(node_id, context.honest_value)


class AdversaryWorkerAttack(WorkerAttack):
    """Per-node worker seam adapter delegating to the shared coordinator."""

    def __init__(self, coordinator: AdversaryCoordinator,
                 node_id: str) -> None:
        self.coordinator = coordinator
        self.node_id = node_id
        self.name = coordinator.adversary.name

    def corrupt_gradient(self, context: AttackContext) -> Optional[np.ndarray]:
        return self.coordinator.worker_gradient(self.node_id, context)

    def poison_batch(self, features, labels, context: AttackContext):
        return self.coordinator.adversary.poison_batch(features, labels,
                                                       context)


class AdversaryServerAttack(ServerAttack):
    """Per-node server seam adapter delegating to the shared coordinator."""

    def __init__(self, coordinator: AdversaryCoordinator,
                 node_id: str) -> None:
        self.coordinator = coordinator
        self.node_id = node_id
        self.name = coordinator.adversary.name

    def corrupt_model(self, context: AttackContext) -> Optional[np.ndarray]:
        # Phase 1 precedes the round's gradients: never the round plan.
        return self.coordinator.adversary.server_model(context)


def make_binding(adversary: Adversary, *, seed: int,
                 worker_ids: Sequence[str], server_ids: Sequence[str],
                 num_attacking_workers: int, num_attacking_servers: int,
                 gradient_rule_name: str, declared_byzantine_workers: int,
                 declared_byzantine_servers: int, gradient_quorum: int,
                 model_quorum: int) -> RunBinding:
    """Build the :class:`RunBinding` a trainer hands its adversary.

    The controlled nodes are the *last* ids of each role.  Worker (server)
    attackers are only materialised when the adversary actually corrupts
    that side.
    """
    workers = (list(worker_ids[len(worker_ids) - num_attacking_workers:])
               if num_attacking_workers > 0 and adversary.attacks_workers
               else [])
    servers = (list(server_ids[len(server_ids) - num_attacking_servers:])
               if num_attacking_servers > 0 and adversary.attacks_servers
               else [])
    return RunBinding(
        seed=seed,
        worker_ids=list(worker_ids),
        server_ids=list(server_ids),
        byzantine_workers=workers,
        byzantine_servers=servers,
        gradient_rule_name=gradient_rule_name,
        gradient_rule=get_rule(gradient_rule_name,
                               num_byzantine=declared_byzantine_workers),
        declared_byzantine_workers=declared_byzantine_workers,
        declared_byzantine_servers=declared_byzantine_servers,
        gradient_quorum=gradient_quorum,
        model_quorum=model_quorum,
    )


def wire_attacks(*, config, seed: int, adversary: Adversary,
                 num_attacking_workers: int = 0,
                 num_attacking_servers: int = 0,
                 gradient_rule_name: str = "multi_krum"):
    """The one attack-wiring path (called from :mod:`repro.core.wiring`).

    Binds ``adversary`` to the run, puts one coordinator behind it and
    returns ``(coordinator, worker_attack_map, server_attack_map,
    attacking_workers, attacking_servers)``: one adapter per controlled
    node (all sharing the coordinator), ``None`` for honest nodes, ready
    to slot into the per-node ``attack`` fields every runtime uses, plus
    the id sets of the controlled nodes.
    """
    binding = make_binding(
        adversary, seed=seed, worker_ids=config.worker_ids(),
        server_ids=config.server_ids(),
        num_attacking_workers=num_attacking_workers,
        num_attacking_servers=num_attacking_servers,
        gradient_rule_name=gradient_rule_name,
        declared_byzantine_workers=config.num_byzantine_workers,
        declared_byzantine_servers=config.num_byzantine_servers,
        gradient_quorum=config.gradient_quorum,
        model_quorum=config.model_quorum)
    coordinator = AdversaryCoordinator(adversary, binding)
    attacking_workers = set(binding.byzantine_workers)
    attacking_servers = set(binding.byzantine_servers)
    worker_attacks = {
        worker_id: (AdversaryWorkerAttack(coordinator, worker_id)
                    if worker_id in attacking_workers else None)
        for worker_id in binding.worker_ids}
    server_attacks = {
        server_id: (AdversaryServerAttack(coordinator, server_id)
                    if server_id in attacking_servers else None)
        for server_id in binding.server_ids}
    return (coordinator, worker_attacks, server_attacks, attacking_workers,
            attacking_servers)
