"""Thread-based runtime: every node is a real thread exchanging messages.

The simulated runtime in :mod:`repro.core.trainer` controls time explicitly;
this runtime instead runs every parameter server and worker in its own
Python thread, communicating through mailboxes, so that delivery order is
decided by genuine scheduling non-determinism (plus optional random jitter).
It is the closest offline equivalent to the paper's gRPC deployment and is
used by the integration tests to check that the protocol tolerates true
concurrency, stragglers and Byzantine nodes without relying on the
simulator's bookkeeping.

The runtime is intentionally independent from :class:`NetworkSimulator`:
here the wall clock is real, so every node thread owns a
:class:`~repro.runtime.live.Endpoint` — the mailbox and send policy the
process cluster uses too — over the in-process wire
(:class:`ThreadEndpoint`).
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.adversary.base import ServerAttack, WorkerAttack
from repro.core.config import ClusterConfig
from repro.core.nodes import ServerNode
from repro.core.wiring import ClusterWiring, SeedWiring
from repro.data.datasets import Dataset
from repro.faults import FaultSchedule
from repro.hetero import HeteroSpec
from repro.kernels import active_backend
from repro.obs.history import TrainingHistory
from repro.nn.module import Module
from repro.nn.schedules import ConstantSchedule, LearningRateSchedule
from repro.runtime.live import Endpoint, LiveNode, QuorumTimeout, live_history


class ThreadEndpoint(Endpoint):
    """The in-process wire: a frame goes straight into the peer's mailbox.

    ``peers`` is the ``node_id → endpoint`` table of the whole cluster,
    shared by its endpoints and filled by whoever builds them.
    """

    def __init__(self, peers: Dict[str, Endpoint], *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._peers = peers

    def _transmit(self, recipient: str, kind: str, step: int,
                  payload: np.ndarray) -> None:
        self._peers[recipient].deliver(self.node_id, kind, step, payload)


class _ThreadNode(LiveNode):
    """A live node on its runtime's clock and observation board, run by
    one thread that keeps the node's error for the runtime to raise."""

    span_prefix = "thr"
    runtime_label = "threads"

    def __init__(self, runtime: "ThreadedClusterRuntime", node,
                 straggle: float) -> None:
        super().__init__(runtime.wiring, node,
                         runtime.endpoints[node.node_id],
                         runtime.quorum_timeout, straggle)
        self._runtime = runtime
        self.error: Optional[BaseException] = None

    def start(self, num_steps: int) -> None:
        """Run steps ``0 .. num_steps - 1`` on a thread of this node's own."""
        def run() -> None:
            try:
                self.run_steps(0, num_steps)
            except BaseException as exc:  # noqa: BLE001 - surfaced to caller
                self.error = exc

        self.thread = threading.Thread(target=run, daemon=True,
                                       name=f"node-{self.node_id}")
        self.thread.start()

    def publish_observation(self, step: int, gradient: np.ndarray) -> None:
        self._runtime.adversary_coordinator.publish(self.node_id, step,
                                                    gradient)


class ThreadedClusterRuntime:
    """Run the GuanYu protocol with one thread per node.

    Parameters mirror :class:`repro.core.trainer.GuanYuTrainer`; the timing
    axis of the returned history is the *real* wall clock.

    Parameters
    ----------
    config:
        Cluster arithmetic (declared Byzantine counts size the quorums).
    model_fn:
        Factory producing identically-initialised models for every node.
    straggler_sleep:
        Optional mapping ``node_id -> seconds`` slept before each send,
        modelling slow nodes.
    jitter:
        Upper bound of the uniform random delivery delay added per message.
    fault_schedule:
        Optional declarative :class:`~repro.faults.FaultSchedule`.  The
        step gating the events is each node's *own* protocol step (nodes
        progress at different wall-clock rates); crashed nodes sit out
        their steps, nodes partitioned away from a full quorum stall, and
        the remaining nodes keep making progress on quorums alone.
    adversary:
        Optional :class:`~repro.adversary.Adversary` controlling every
        actually-Byzantine node (mutually exclusive with the per-node
        attacks, which the wiring lifts into one).  Adversaries that
        observe the round's honest gradients are fed through an
        observation board: honest workers publish each gradient as they
        compute it and the Byzantine node threads block (bounded by
        ``quorum_timeout``) until the round is fully observable — the
        in-process equivalent of the paper's omniscient adversary reading
        every node's memory.
    sharding, hetero:
        Per-worker data views, identical to the simulated trainers: the
        legacy ``sharding`` strategies or a
        :class:`~repro.hetero.HeteroSpec` (Dirichlet/shard partitions,
        imbalance, drift, worker profiles).  The partition is a pure
        function of ``(seed, num_workers, hetero)``, so a scenario means
        the same per-worker data here as on the simulated clock.  Profile
        ``delay_multiplier``\\ s become real sleeps
        (:data:`repro.core.wiring.HETERO_STRAGGLER_UNIT` seconds per unit
        of excess delay) on top of any explicit ``straggler_sleep``.
    """

    def __init__(self, config: ClusterConfig, model_fn: Callable[[], Module],
                 train_dataset: Dataset, batch_size: int = 16,
                 schedule: Optional[LearningRateSchedule] = None,
                 worker_attack: Optional[WorkerAttack] = None,
                 num_attacking_workers: int = 0,
                 server_attack: Optional[ServerAttack] = None,
                 num_attacking_servers: int = 0,
                 gradient_rule_name: str = "multi_krum",
                 model_rule_name: str = "median",
                 jitter: float = 0.0,
                 straggler_sleep: Optional[Dict[str, float]] = None,
                 quorum_timeout: float = 60.0,
                 fault_schedule: Optional[FaultSchedule] = None,
                 adversary=None,
                 sharding: str = "iid",
                 hetero: Optional[HeteroSpec] = None,
                 seed: int = 0) -> None:
        self.schedule = schedule if schedule is not None else ConstantSchedule(0.001)
        # Wiring first: validation and mutual-exclusion errors must surface
        # before any dataset/transport work happens.
        self.wiring = wiring = ClusterWiring(
            SeedWiring(config, train_dataset, seed=seed,
                       batch_size=batch_size, sharding=sharding,
                       hetero=hetero, schedule=self.schedule,
                       fault_schedule=fault_schedule),
            gradient_rule_name=gradient_rule_name,
            model_rule_name=model_rule_name,
            worker_attack=worker_attack,
            num_attacking_workers=num_attacking_workers,
            server_attack=server_attack,
            num_attacking_servers=num_attacking_servers,
            adversary=adversary)
        self.config = config
        self.quorum_timeout = quorum_timeout
        self.straggler_sleep = dict(straggler_sleep or {})
        #: node_id → that node thread's endpoint (one jitter stream each)
        self.endpoints: Dict[str, ThreadEndpoint] = {}
        for index, node_id in enumerate(wiring.worker_ids + wiring.server_ids):
            self.endpoints[node_id] = ThreadEndpoint(
                self.endpoints, node_id, wiring.worker_ids,
                wiring.server_ids, jitter=jitter, seed=seed + 4000 + index,
                fault_controller=wiring.faults)

        self.adversary_coordinator = wiring.coordinator
        #: set only for adversaries that observe the round's gradients
        self._observation_board = None
        if wiring.needs_observation_board:
            wiring.coordinator.enable_board(wiring.expected_publishers,
                                            timeout=quorum_timeout)
            self._observation_board = wiring.coordinator

        self.workers = [wiring.worker(index, model_fn())
                        for index in range(len(wiring.worker_ids))]
        template = model_fn()
        self.servers = [wiring.server(index, template)
                        for index in range(len(wiring.server_ids))]

        #: what the history's config names besides the cluster arithmetic
        self._labels = {"adversary": adversary, "faults": fault_schedule,
                        "hetero": hetero}

    # ------------------------------------------------------------------ #
    @property
    def messages_sent(self) -> int:
        return sum(e.messages_sent for e in self.endpoints.values())

    @property
    def messages_suppressed(self) -> int:
        return sum(e.messages_suppressed for e in self.endpoints.values())

    @property
    def correct_servers(self) -> List[ServerNode]:
        return [server for server in self.servers if not server.is_byzantine]

    def global_parameters(self) -> np.ndarray:
        vectors = [server.current_parameters() for server in self.correct_servers]
        return active_backend().median(np.stack(vectors), axis=0)

    # ------------------------------------------------------------------ #
    def run(self, num_steps: int) -> TrainingHistory:
        """Run ``num_steps`` protocol steps and return the training history.

        Raises the first node exception encountered (e.g. a quorum timeout),
        so failures surface in tests instead of silently producing an empty
        history.
        """
        if num_steps <= 0:
            raise ValueError("num_steps must be positive")
        lives = [_ThreadNode(self, worker,
                             self.straggler_sleep.get(worker.node_id, 0.0)
                             + self.wiring.straggler_excess(index))
                 for index, worker in enumerate(self.workers)] + [
            _ThreadNode(self, server,
                        self.straggler_sleep.get(server.node_id, 0.0))
            for server in self.servers]
        for live in lives:
            live.start(num_steps)
        for live in lives:
            live.thread.join(timeout=self.quorum_timeout * (num_steps + 1))
        for live in lives:
            if live.error is not None:
                raise live.error
            if live.thread.is_alive():
                raise QuorumTimeout(f"node {live.node_id} did not terminate")

        return live_history(
            "guanyu-threaded", self.config, **self._labels,
            schedule=self.schedule, num_steps=num_steps,
            reports={live.node_id: [live.report()] for live in lives},
            attacking_servers=self.wiring.attacking_servers)
