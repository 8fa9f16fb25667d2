"""One scenario → nodes derivation for all four runtimes.

A scenario *means the same cluster* — same shard, same mini-batch stream,
same attack noise, same fault gating per node — under the simulator, the
batched engine, the threaded runtime and the process cluster because every
one of them derives its nodes from a :class:`ClusterWiring` and from
nothing else:

* the run's one :class:`~repro.adversary.Adversary` (stateless
  ``worker_attack`` / ``server_attack`` arguments are lifted into one at
  this boundary), its attack counts checked against the declared Byzantine
  budget, then the per-node attack maps from
  :func:`repro.adversary.engine.wire_attacks` (mutual-exclusion errors
  surface before any dataset work);
* the :class:`~repro.faults.FaultController`, validated against the node
  ids, with every per-node attack passed through ``gate_attack``;
* the data partition (computed on first use: a parameter server and the
  cluster supervisor never need it) and the per-worker profiles;
* the seed of every per-node random stream — loader ``seed + 1000 + i``,
  worker rng ``seed + 2000 + i``, server rng ``seed + 3000 + i``.  Stored
  results were computed with these offsets; they live here and only here.

The simulator builds node objects from it (:meth:`ClusterWiring.worker` /
:meth:`~ClusterWiring.server`), the live runtimes build theirs the same way
and run them on :mod:`repro.runtime.live`, a cluster node process builds
only its own node, and the batched engine takes the loaders, rng seeds and
gated attack maps without any node object.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Set, Tuple

from repro.adversary.base import Adversary, ServerAttack, StatelessAdversary, WorkerAttack
from repro.adversary.engine import wire_attacks
from repro.adversary.registry import lift
from repro.aggregation import get_rule
from repro.core.config import ClusterConfig
from repro.core.nodes import ServerNode, WorkerNode
from repro.data.datasets import Dataset
from repro.data.loader import DataLoader, partition_dataset
from repro.faults import FaultController, FaultSchedule
from repro.hetero import DEFAULT_PROFILE, HeteroSpec, WorkerProfile
from repro.nn.module import Module
from repro.nn.schedules import LearningRateSchedule

#: wall-clock seconds one unit of profile ``delay_multiplier`` excess adds
#: to a worker's step in the live (threaded, cluster) runtimes
HETERO_STRAGGLER_UNIT = 0.002


def validate_attack_counts(config: ClusterConfig, adversary: Adversary,
                           num_attacking_workers: int,
                           num_attacking_servers: int) -> None:
    """Check attack counts against a cluster's declared Byzantine budget.

    One rule per side: a positive count needs an adversary that attacks
    that side.
    """
    if num_attacking_workers > 0 and not adversary.attacks_workers:
        raise ValueError("num_attacking_workers > 0 requires a worker_attack")
    if num_attacking_servers > 0 and not adversary.attacks_servers:
        raise ValueError("num_attacking_servers > 0 requires a server_attack")
    if num_attacking_workers > config.num_byzantine_workers:
        raise ValueError(
            "more attacking workers than the declared Byzantine count; "
            "GuanYu's guarantees only cover f̄ declared Byzantine workers"
        )
    if num_attacking_servers > config.num_byzantine_servers:
        raise ValueError(
            "more attacking servers than the declared Byzantine count; "
            "GuanYu's guarantees only cover f declared Byzantine servers"
        )


def scenario_arguments(spec) -> Tuple[Dict, Optional[Dataset], object]:
    """Unpack a ``ScenarioSpec`` into the trainers' constructor vocabulary.

    Returns ``(arguments, test_dataset, model_fn)``: ``arguments`` are the
    keyword arguments :class:`ClusterWiring`, ``GuanYuTrainer`` and
    ``ThreadedClusterRuntime`` share, minus ``config`` (the single-server
    baselines have no quorum arithmetic to build one from).
    """
    from repro.experiments.common import (  # lazy: avoids an import cycle
        build_scale_bundle,
    )

    train, test, model_fn, schedule = build_scale_bundle(spec.to_scale())
    return {
        "train_dataset": train,
        "seed": spec.seed,
        "batch_size": spec.batch_size,
        "sharding": spec.sharding,
        "hetero": spec.hetero,
        "schedule": schedule,
        "gradient_rule_name": spec.gradient_rule,
        "model_rule_name": spec.model_rule,
        "worker_attack": (spec.worker_attack.build()
                          if spec.worker_attack else None),
        "num_attacking_workers": spec.resolved_num_attacking_workers(),
        "server_attack": (spec.server_attack.build()
                          if spec.server_attack else None),
        "num_attacking_servers": spec.resolved_num_attacking_servers(),
        "adversary": (lift(spec.adversary.build())
                      if spec.adversary else None),
        "fault_schedule": spec.faults,
    }, test, model_fn


class ClusterWiring:
    """Who the nodes of one scenario are and what each of them is given.

    Nothing rebinds its attributes after construction; the attacks and the
    fault controller it hands out are the stateful objects they always
    were, shared by whoever reads them from here.

    Attributes
    ----------
    worker_ids, server_ids:
        Node ids in canonical order.
    adversary:
        The one :class:`~repro.adversary.Adversary` of the run: the caller's,
        or the :class:`~repro.adversary.StatelessAdversary` its
        ``worker_attack`` / ``server_attack`` were lifted into (with
        neither, one that attacks no side).
    coordinator:
        The :class:`~repro.adversary.AdversaryCoordinator` behind the
        adapter attacks.
    worker_attacks, server_attacks:
        Node id → adapter attack (``None`` for honest nodes), fault-gated.
    attacking_workers, attacking_servers:
        Id sets of the actually-attacking nodes (the last ids).
    faults:
        The scenario's :class:`~repro.faults.FaultController` or ``None``.
    profiles:
        Per-worker :class:`~repro.hetero.WorkerProfile` (seed-independent).
    """

    def __init__(self, config: ClusterConfig, train_dataset: Dataset, *,
                 seed: int = 0, batch_size: int = 32, sharding: str = "iid",
                 hetero: Optional[HeteroSpec] = None,
                 schedule: Optional[LearningRateSchedule] = None,
                 gradient_rule_name: str = "multi_krum",
                 model_rule_name: str = "median",
                 worker_attack: Optional[WorkerAttack] = None,
                 num_attacking_workers: int = 0,
                 server_attack: Optional[ServerAttack] = None,
                 num_attacking_servers: int = 0,
                 adversary: Optional[Adversary] = None,
                 fault_schedule: Optional[FaultSchedule] = None) -> None:
        if adversary is None:
            adversary = StatelessAdversary(worker_attack, server_attack)
        elif worker_attack is not None or server_attack is not None:
            raise ValueError("give either an adversary or legacy per-node "
                             "attacks, not both")
        validate_attack_counts(config, adversary, num_attacking_workers,
                               num_attacking_servers)
        (self.coordinator, worker_attacks, server_attacks,
         self.attacking_workers, self.attacking_servers) = wire_attacks(
            config=config, seed=seed, adversary=adversary,
            num_attacking_workers=num_attacking_workers,
            num_attacking_servers=num_attacking_servers,
            gradient_rule_name=gradient_rule_name)
        self.config = config
        self.adversary = adversary
        self.worker_ids: List[str] = config.worker_ids()
        self.server_ids: List[str] = config.server_ids()

        self.faults: Optional[FaultController] = None
        if fault_schedule:
            fault_schedule.validate(
                known_nodes=self.worker_ids + self.server_ids)
            self.faults = FaultController(fault_schedule, seed=seed)
            for attacks in (worker_attacks, server_attacks):
                for node_id, attack in attacks.items():
                    attacks[node_id] = self.faults.gate_attack(node_id, attack)
        self.worker_attacks: Dict[str, Optional[WorkerAttack]] = worker_attacks
        self.server_attacks: Dict[str, Optional[ServerAttack]] = server_attacks

        self.seed = seed
        self.batch_size = batch_size
        self.schedule = schedule
        self.gradient_rule_name = gradient_rule_name
        self.model_rule_name = model_rule_name
        self.profiles: List[WorkerProfile] = [
            hetero.profile_for(index) if hetero else DEFAULT_PROFILE
            for index in range(len(self.worker_ids))]
        self._partition_arguments = (train_dataset, sharding, hetero)

    @classmethod
    def from_spec(cls, spec) -> Tuple["ClusterWiring", Optional[Dataset],
                                      object]:
        """``(wiring, test_dataset, model_fn)`` of a GuanYu scenario."""
        arguments, test, model_fn = scenario_arguments(spec)
        return cls(spec.cluster_config(), **arguments), test, model_fn

    # ------------------------------------------------------------------ #
    # Data and random streams
    # ------------------------------------------------------------------ #
    @cached_property
    def shards(self) -> List[Dataset]:
        """Per-worker datasets — a pure function of ``(seed, n̄, hetero)``.

        Partitioned once; the wiring then lets the full dataset go (the
        shards are copies — D = 30,730 images would otherwise sit in every
        long-lived consumer twice).
        """
        train_dataset, sharding, hetero = self._partition_arguments
        del self._partition_arguments
        return partition_dataset(train_dataset, len(self.worker_ids),
                                 sharding=sharding, hetero=hetero,
                                 seed=self.seed)

    def loader(self, index: int) -> DataLoader:
        """A fresh mini-batch stream over worker ``index``'s shard."""
        return DataLoader(
            self.shards[index],
            batch_size=self.profiles[index].batch_size or self.batch_size,
            seed=self.seed + 1000 + index)

    def worker_rng_seed(self, index: int) -> int:
        return self.seed + 2000 + index

    def server_rng_seed(self, index: int) -> int:
        return self.seed + 3000 + index

    def straggler_excess(self, index: int) -> float:
        """Seconds worker ``index``'s profile slows each live step by."""
        return ((self.profiles[index].delay_multiplier - 1.0)
                * HETERO_STRAGGLER_UNIT)

    # ------------------------------------------------------------------ #
    # Nodes
    # ------------------------------------------------------------------ #
    def _model_rule(self):
        return get_rule(self.model_rule_name,
                        num_byzantine=self.config.num_byzantine_servers)

    def worker(self, index: int, model: Module) -> WorkerNode:
        node_id = self.worker_ids[index]
        return WorkerNode(
            node_id=node_id, model=model, loader=self.loader(index),
            model_aggregator=self._model_rule(),
            attack=self.worker_attacks[node_id],
            seed=self.worker_rng_seed(index),
            local_steps=self.profiles[index].local_steps,
            schedule=self.schedule)

    def server(self, index: int, model: Module) -> ServerNode:
        node_id = self.server_ids[index]
        return ServerNode(
            node_id=node_id, model=model,
            gradient_aggregator=get_rule(
                self.gradient_rule_name,
                num_byzantine=self.config.num_byzantine_workers),
            model_aggregator=self._model_rule(),
            schedule=self.schedule,
            attack=self.server_attacks[node_id],
            seed=self.server_rng_seed(index))

    # ------------------------------------------------------------------ #
    # Participation under faults
    # ------------------------------------------------------------------ #
    def participants(self, step: int) -> Tuple[Set[str], Set[str]]:
        """``(workers, servers)`` that can complete ``step``.

        Crashed nodes sit the step out entirely; nodes that active faults
        leave short of a quorum — directly or transitively, see
        :meth:`repro.faults.FaultController.participating_nodes` — stall
        with frozen state.  A pure function of ``(schedule, step)``, so
        every node of every runtime computes the same sets and a stalled
        node is never waited on.  Without faults everyone participates.
        """
        if self.faults is None:
            return set(self.worker_ids), set(self.server_ids)
        workers, servers = self.faults.participating_nodes(
            self.worker_ids, self.server_ids, self.config.model_quorum,
            self.config.gradient_quorum, step)
        return set(workers), set(servers)

    def sits_out(self, node_id: str, step: int) -> bool:
        """Whether faults force ``node_id`` to sit out ``step``."""
        if self.faults is None:
            return False
        self.faults.on_step(step)
        workers, servers = self.participants(step)
        return node_id not in workers and node_id not in servers

    # ------------------------------------------------------------------ #
    # Observing adversaries (live runtimes)
    # ------------------------------------------------------------------ #
    @property
    def needs_observation_board(self) -> bool:
        """Whether Byzantine workers read the round's honest gradients —
        publishing to a board nobody reads would just accumulate copies."""
        return (self.adversary.requires_observation
                and bool(self.attacking_workers))

    def expected_publishers(self, step: int) -> List[str]:
        """Honest workers whose gradients the adversary can observe at
        ``step``: those that sit the step out never compute one, so the
        observation board must not wait for them."""
        participating, _ = self.participants(step)
        return [worker_id for worker_id in self.worker_ids
                if worker_id not in self.attacking_workers
                and worker_id in participating]
