"""One scenario → nodes derivation for all four runtimes.

A scenario *means the same cluster* — same shard, same mini-batch stream,
same attack noise, same fault gating per node — under the simulator, the
batched engine, the threaded runtime and the process cluster because every
one of them derives its nodes from a :class:`ClusterWiring` and from
nothing else.  What the seed determines is a :class:`SeedWiring` of its
own, so lanes of a batched group that share a seed share one:

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

The first item and the gating are the lane part (:class:`ClusterWiring`),
the rest the seed part (:class:`SeedWiring`; the rng seeds are arithmetic
on its seed).  The
simulator builds node objects from it (:meth:`ClusterWiring.worker` /
:meth:`~ClusterWiring.server`), the live runtimes build theirs the same way
and run them on :mod:`repro.runtime.live`, a cluster node process builds
only its own node, and the batched engine takes each seed's loaders and
each lane's rng seeds and gated attack maps without any node object.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Set, Tuple

from repro.adversary.base import Adversary, ServerAttack, StatelessAdversary, WorkerAttack
from repro.adversary.engine import wire_attacks
from repro.adversary.registry import lift
from repro.aggregation import get_rule
from repro.core.config import ClusterConfig, TrustedServerConfig
from repro.core.nodes import ServerNode, WorkerNode
from repro.data.datasets import Dataset
from repro.data.loader import DataLoader, partition_dataset
from repro.faults import FaultController, FaultSchedule
from repro.hetero import DEFAULT_PROFILE, HeteroSpec, WorkerProfile
from repro.nn.module import Module
from repro.nn.schedules import LearningRateSchedule
from repro.obs.tracer import get_tracer

#: wall-clock seconds one unit of profile ``delay_multiplier`` excess adds
#: to a worker's step in the live (threaded, cluster) runtimes
HETERO_STRAGGLER_UNIT = 0.002


def validate_attack_counts(config: ClusterConfig, adversary: Adversary,
                           num_attacking_workers: int,
                           num_attacking_servers: int) -> None:
    """Check attack counts against a cluster's declared Byzantine budget.

    One rule per side: a positive count needs an adversary that attacks
    that side.  One trusted server (:class:`TrustedServerConfig`) carries
    no guarantee, so any of its workers may attack.
    """
    if num_attacking_workers > 0 and not adversary.attacks_workers:
        raise ValueError("num_attacking_workers > 0 requires a worker_attack")
    if num_attacking_servers > 0 and not adversary.attacks_servers:
        raise ValueError("num_attacking_servers > 0 requires a server_attack")
    if num_attacking_workers > (config.num_workers
                                if isinstance(config, TrustedServerConfig)
                                else config.num_byzantine_workers):
        raise ValueError(
            "more attacking workers than the declared Byzantine count; "
            "GuanYu's guarantees only cover f̄ declared Byzantine workers"
        )
    if num_attacking_servers > config.num_byzantine_servers:
        raise ValueError(
            "more attacking servers than the declared Byzantine count; "
            "GuanYu's guarantees only cover f declared Byzantine servers"
        )


def seed_arguments(spec) -> Tuple[Dict, Optional[Dataset], object]:
    """The seed part of :func:`scenario_arguments`: ``(arguments,
    test_dataset, model_fn)``, ``arguments`` being :class:`SeedWiring`'s
    keyword arguments minus ``config``.  The scale bundle is built here."""
    from repro.experiments.common import (  # lazy: avoids an import cycle
        build_scale_bundle,
    )

    train, test, model_fn, schedule = build_scale_bundle(spec)
    return {
        "train_dataset": train,
        "seed": spec.seed,
        "batch_size": spec.batch_size,
        "sharding": spec.sharding,
        "hetero": spec.hetero,
        "schedule": schedule,
        "fault_schedule": spec.faults,
    }, test, model_fn


def lane_arguments(spec) -> Dict:
    """The lane part of :func:`scenario_arguments`: :class:`ClusterWiring`'s
    keyword arguments — the rules and the threats, freshly built."""
    return {
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
    }


def scenario_arguments(spec) -> Tuple[Dict, Optional[Dataset], object]:
    """Unpack a ``ScenarioSpec`` into the trainers' constructor vocabulary.

    Returns ``(arguments, test_dataset, model_fn)``: ``arguments`` are the
    keyword arguments ``GuanYuTrainer`` and ``ThreadedClusterRuntime``
    share, minus ``config`` (``spec.cluster_config()``) —
    :func:`seed_arguments` and :func:`lane_arguments` together.
    """
    arguments, test, model_fn = seed_arguments(spec)
    return {**arguments, **lane_arguments(spec)}, test, model_fn


class SeedWiring:
    """What one seed of a scenario determines, whatever rules and threats
    run over it: the node ids and per-worker profiles, the fault controller
    (its drops are a hash of the seed), the data partition and every
    loader's stream.

    A :class:`ClusterWiring` adds one lane's rules and threats on top.
    Every runtime builds one of each per scenario; the batched engine
    builds one of these per distinct seed of its group and hands it to
    every lane with that seed.

    Attributes
    ----------
    worker_ids, server_ids:
        Node ids in canonical order.
    faults:
        The scenario's :class:`~repro.faults.FaultController` or ``None``.
    profiles:
        Per-worker :class:`~repro.hetero.WorkerProfile` (seed-independent).
    """

    def __init__(self, config: ClusterConfig, train_dataset: Dataset, *,
                 seed: int = 0, batch_size: int = 32, sharding: str = "iid",
                 hetero: Optional[HeteroSpec] = None,
                 schedule: Optional[LearningRateSchedule] = None,
                 fault_schedule: Optional[FaultSchedule] = None) -> None:
        self.config = config
        self.worker_ids: List[str] = config.worker_ids()
        self.server_ids: List[str] = config.server_ids()
        self.faults: Optional[FaultController] = None
        if fault_schedule:
            fault_schedule.validate(
                known_nodes=self.worker_ids + self.server_ids)
            self.faults = FaultController(fault_schedule, seed=seed)
        self.seed = seed
        self.batch_size = batch_size
        self.hetero = hetero
        self.schedule = schedule
        self.profiles: List[WorkerProfile] = [
            hetero.profile_for(index) if hetero else DEFAULT_PROFILE
            for index in range(len(self.worker_ids))]
        self._partition_arguments = (train_dataset, sharding)

    @classmethod
    def from_spec(cls, spec) -> Tuple["SeedWiring", Optional[Dataset],
                                      object]:
        """``(seed wiring, test_dataset, model_fn)`` of a GuanYu scenario."""
        arguments, test, model_fn = seed_arguments(spec)
        return cls(spec.cluster_config(), **arguments), test, model_fn

    @cached_property
    def shards(self) -> List[Dataset]:
        """Per-worker datasets — a pure function of ``(seed, n̄, hetero)``.

        Partitioned once; the wiring then lets the full dataset go (the
        shards are row views of one block gathered from it, and 30,730
        images would otherwise sit in every long-lived consumer twice).
        """
        train_dataset, sharding = self._partition_arguments
        del self._partition_arguments
        return partition_dataset(train_dataset, len(self.worker_ids),
                                 sharding=sharding, hetero=self.hetero,
                                 seed=self.seed)

    def loader(self, index: int) -> DataLoader:
        """A fresh mini-batch stream over worker ``index``'s shard."""
        return DataLoader(
            self.shards[index],
            batch_size=self.profiles[index].batch_size or self.batch_size,
            seed=self.seed + 1000 + index)


class ClusterWiring:
    """Who the nodes of one scenario are and what each of them is given:
    a :class:`SeedWiring` and the threats wired at one lane's rules.

    Nothing rebinds its attributes after construction; the attacks and the
    fault controller it hands out are the stateful objects they always
    were, shared by whoever reads them from here.

    Attributes
    ----------
    seeded:
        The :class:`SeedWiring` it reads its data, profiles and faults from.
    worker_ids, server_ids, config, faults, profiles, schedule, seed:
        ``seeded``'s.
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
    """

    def __init__(self, seeded: SeedWiring, *,
                 gradient_rule_name: str = "multi_krum",
                 model_rule_name: str = "median",
                 worker_attack: Optional[WorkerAttack] = None,
                 num_attacking_workers: int = 0,
                 server_attack: Optional[ServerAttack] = None,
                 num_attacking_servers: int = 0,
                 adversary: Optional[Adversary] = None) -> None:
        config = seeded.config
        legacy = adversary is None
        if legacy:
            adversary = StatelessAdversary(worker_attack, server_attack)
        elif worker_attack is not None or server_attack is not None:
            raise ValueError("give either an adversary or legacy per-node "
                             "attacks, not both")
        validate_attack_counts(config, adversary, num_attacking_workers,
                               num_attacking_servers)
        (self.coordinator, worker_attacks, server_attacks,
         self.attacking_workers, self.attacking_servers) = wire_attacks(
            config=config, seed=seeded.seed, adversary=adversary,
            num_attacking_workers=num_attacking_workers,
            num_attacking_servers=num_attacking_servers,
            gradient_rule_name=gradient_rule_name)
        self.seeded = seeded
        self.adversary = adversary
        (self.config, self.worker_ids, self.server_ids, self.faults,
         self.profiles, self.schedule, self.seed) = (
            config, seeded.worker_ids, seeded.server_ids, seeded.faults,
            seeded.profiles, seeded.schedule, seeded.seed)
        if self.faults is not None:
            for attacks in (worker_attacks, server_attacks):
                for node_id, attack in attacks.items():
                    attacks[node_id] = self.faults.gate_attack(node_id, attack)
        self.worker_attacks: Dict[str, Optional[WorkerAttack]] = worker_attacks
        self.server_attacks: Dict[str, Optional[ServerAttack]] = server_attacks

        #: ``history.config`` of a simulated run: the sequential and the
        #: batched engine write this one dict
        self.history_config: Dict[str, object] = {
            **config.as_dict(),
            "batch_size": seeded.batch_size,
            "gradient_rule": gradient_rule_name,
            "model_rule": model_rule_name,
            "num_attacking_workers": num_attacking_workers,
            "num_attacking_servers": num_attacking_servers,
            "worker_attack": getattr(worker_attack, "name", None),
            "server_attack": getattr(server_attack, "name", None),
            "adversary": None if legacy else adversary.name,
            "faults": (self.faults.schedule.to_dict() if self.faults
                       else None),
            "hetero": seeded.hetero.to_dict() if seeded.hetero else None,
        }
        self.gradient_rule_name = gradient_rule_name
        self.model_rule_name = model_rule_name

    @classmethod
    def from_spec(cls, spec) -> Tuple["ClusterWiring", Optional[Dataset],
                                      object]:
        """``(wiring, test_dataset, model_fn)`` of a GuanYu scenario."""
        seeded, test, model_fn = SeedWiring.from_spec(spec)
        return cls(seeded, **lane_arguments(spec)), test, model_fn

    # ------------------------------------------------------------------ #
    # Random streams
    # ------------------------------------------------------------------ #
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
        """Worker ``index`` over ``model`` — a dense model's plan is all
        the worker keeps of it; a convolutional one must be the worker's
        own copy (see :class:`~repro.core.nodes.WorkerNode`)."""
        node_id = self.worker_ids[index]
        return WorkerNode(
            node_id=node_id, model=model, loader=self.seeded.loader(index),
            model_aggregator=self._model_rule(),
            attack=self.worker_attacks[node_id],
            seed=self.worker_rng_seed(index),
            local_steps=self.profiles[index].local_steps,
            schedule=self.schedule)

    def server(self, index: int, template: Module) -> ServerNode:
        """Server ``index``, starting from ``template``'s parameters: one
        template serves every server of a scenario."""
        node_id = self.server_ids[index]
        return ServerNode(
            node_id=node_id, parameters=template.get_flat_parameters(),
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

    def simulated_step(self, step: int, runtime: str
                       ) -> Tuple[Set[str], Set[str], List[str]]:
        """``(workers, servers, live correct servers)`` of ``step`` on the
        simulated clock: :meth:`participants`, plus the correct servers the
        schedule has not crashed, in id order.

        Emits ``{runtime}.fault.stalled`` naming the nodes that sit the
        step out, and raises when no correct server is alive — the step
        would have no model to read.
        """
        workers, servers = self.participants(step)
        tracer = get_tracer()
        if tracer.enabled:
            stalled = [node_id for node_id in self.worker_ids
                       if node_id not in workers] + [
                node_id for node_id in self.server_ids
                if node_id not in servers]
            if stalled:
                tracer.event(f"{runtime}.fault.stalled", step=step,
                             nodes=stalled)
        alive = [node_id for node_id in self.server_ids
                 if node_id not in self.attacking_servers
                 and (self.faults is None
                      or self.faults.node_alive(node_id, step))]
        if not alive:
            raise RuntimeError(
                f"fault schedule leaves no correct server alive at step "
                f"{step}; the protocol cannot make progress")
        return workers, servers, alive

    def sits_out(self, node_id: str, step: int) -> bool:
        """Whether faults force ``node_id`` to sit out ``step``."""
        if self.faults is None:
            return False
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
