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
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.adversary.base import ServerAttack, WorkerAttack
from repro.core.config import ClusterConfig
from repro.core.nodes import ServerNode, max_pairwise_distance
from repro.core.wiring import ClusterWiring
from repro.data.datasets import Dataset
from repro.faults import FaultSchedule
from repro.hetero import HeteroSpec
from repro.kernels import active_backend
from repro.obs.history import StepRecord, TrainingHistory
from repro.nn.module import Module
from repro.nn.schedules import ConstantSchedule, LearningRateSchedule
from repro.runtime.live import Endpoint, LiveNode, QuorumTimeout


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
    """A live node whose reports land in its runtime's shared records."""

    span_prefix = "thr"
    runtime_label = "threads"

    def __init__(self, runtime: "ThreadedClusterRuntime", node,
                 straggle: float) -> None:
        super().__init__(runtime.wiring, node,
                         runtime.endpoints[node.node_id],
                         runtime.quorum_timeout, straggle)
        self._runtime = runtime

    def publish_observation(self, step: int, gradient: np.ndarray) -> None:
        self._runtime.adversary_coordinator.publish(self.node_id, step,
                                                    gradient)

    def report_loss(self, step: int, loss: float) -> None:
        runtime = self._runtime
        with runtime._record_lock:
            runtime._step_losses[step][self.node_id] = loss

    def report_step(self, step: int) -> None:
        runtime = self._runtime
        elapsed = time.perf_counter() - runtime._start_time
        with runtime._record_lock:
            runtime._step_times[step] = max(
                runtime._step_times.get(step, 0.0), elapsed)


@dataclass
class ThreadedNodeHandle:
    """Bookkeeping for one node thread."""

    node_id: str
    thread: threading.Thread
    error: List[BaseException] = field(default_factory=list)


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
            config, train_dataset, seed=seed, batch_size=batch_size,
            sharding=sharding, hetero=hetero, schedule=self.schedule,
            gradient_rule_name=gradient_rule_name,
            model_rule_name=model_rule_name,
            worker_attack=worker_attack,
            num_attacking_workers=num_attacking_workers,
            server_attack=server_attack,
            num_attacking_servers=num_attacking_servers,
            adversary=adversary, fault_schedule=fault_schedule)
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
        self.servers = [wiring.server(index, model_fn())
                        for index in range(len(wiring.server_ids))]

        self._history = TrainingHistory(label="guanyu-threaded",
                                        config={**config.as_dict(),
                                                "adversary": getattr(adversary,
                                                                     "name", None),
                                                "faults": (fault_schedule.to_dict()
                                                           if fault_schedule
                                                           else None),
                                                "hetero": (hetero.to_dict()
                                                           if hetero
                                                           else None)})
        self._record_lock = threading.Lock()
        self._step_times: Dict[int, float] = {}
        #: step → worker_id → loss; keyed (not appended) so the per-step
        #: mean can be taken in canonical worker order, independent of the
        #: order the racing worker threads happened to finish in
        self._step_losses: Dict[int, Dict[str, float]] = defaultdict(dict)
        self._start_time = 0.0

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
        self._start_time = time.perf_counter()
        handles: List[ThreadedNodeHandle] = []

        def launch(node, straggle: float) -> None:
            live = _ThreadNode(self, node, straggle)
            errors: List[BaseException] = []

            def runner() -> None:
                try:
                    live.run_steps(0, num_steps)
                except BaseException as exc:  # noqa: BLE001 - surfaced to caller
                    errors.append(exc)

            thread = threading.Thread(target=runner, daemon=True,
                                      name=f"node-{node.node_id}")
            handles.append(ThreadedNodeHandle(node_id=node.node_id, thread=thread,
                                              error=errors))
            thread.start()

        for index, worker in enumerate(self.workers):
            launch(worker, self.straggler_sleep.get(worker.node_id, 0.0)
                   + self.wiring.straggler_excess(index))
        for server in self.servers:
            launch(server, self.straggler_sleep.get(server.node_id, 0.0))

        for handle in handles:
            handle.thread.join(timeout=self.quorum_timeout * (num_steps + 1))
        for handle in handles:
            if handle.error:
                raise handle.error[0]
            if handle.thread.is_alive():
                raise QuorumTimeout(f"node {handle.node_id} did not terminate")

        spread = max_pairwise_distance(
            [server.current_parameters() for server in self.correct_servers])
        worker_order = [worker.node_id for worker in self.workers]
        for step in range(num_steps):
            by_worker = self._step_losses.get(step, {})
            losses = [by_worker[worker_id] for worker_id in worker_order
                      if worker_id in by_worker]
            self._history.add(StepRecord(
                step=step,
                simulated_time=self._step_times.get(step, 0.0),
                train_loss=float(np.mean(losses)) if losses else None,
                max_server_spread=spread if step == num_steps - 1 else None,
                learning_rate=self.schedule(step),
            ))
        return self._history
