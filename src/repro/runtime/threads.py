"""Thread-based runtime: every node is a real thread exchanging messages.

The simulated runtime in :mod:`repro.core.trainer` controls time explicitly;
this runtime instead runs every parameter server and worker in its own
Python thread, communicating through queues, so that delivery order is
decided by genuine scheduling non-determinism (plus optional random jitter).
It is the closest offline equivalent to the paper's gRPC deployment and is
used by the integration tests to check that the protocol tolerates true
concurrency, stragglers and Byzantine nodes without relying on the
simulator's bookkeeping.

The runtime is intentionally independent from :class:`NetworkSimulator`: it
has its own tiny transport (:class:`ThreadedTransport`) because the
semantics differ — here the wall clock is real.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.byzantine.base import ServerAttack, WorkerAttack
from repro.core.config import ClusterConfig
from repro.core.nodes import ServerNode, WorkerNode, max_pairwise_distance
from repro.data.datasets import Dataset
from repro.data.loader import DataLoader, partition_dataset
from repro.faults import FaultController, FaultSchedule
from repro.hetero import DEFAULT_PROFILE, HeteroSpec
from repro.aggregation import get_rule
from repro.kernels import active_backend
from repro.obs.history import StepRecord, TrainingHistory
from repro.obs.telemetry import get_registry
from repro.obs.tracer import get_tracer
from repro.network.message import Message, MessageKind
from repro.nn.module import Module
from repro.nn.schedules import ConstantSchedule, LearningRateSchedule


class QuorumTimeout(RuntimeError):
    """Raised when a node cannot gather its quorum within the deadline."""


class ThreadedTransport:
    """In-process message transport with optional random delivery jitter.

    An optional :class:`~repro.faults.FaultController` is consulted once
    per message: crashed endpoints and active partitions suppress delivery,
    per-link overrides scale/extend the delivery delay, and probabilistic
    drops use the controller's hash-based sampling so the outcome is
    independent of thread scheduling.
    """

    def __init__(self, node_ids: Sequence[str], jitter: float = 0.0,
                 seed: int = 0,
                 fault_controller: Optional[FaultController] = None) -> None:
        self._lock = threading.Lock()
        self._conditions: Dict[str, threading.Condition] = {}
        self._buffers: Dict[str, Dict[Tuple[MessageKind, int], Dict[str, Message]]] = {}
        for node_id in node_ids:
            self._conditions[node_id] = threading.Condition()
            self._buffers[node_id] = defaultdict(dict)
        self._abandoned: Dict[str, set] = {node_id: set() for node_id in node_ids}
        self.jitter = jitter
        self.faults = fault_controller
        self._rng = np.random.default_rng(seed)
        self.messages_sent = 0
        self.messages_suppressed = 0

    def _deliver(self, message: Message) -> None:
        condition = self._conditions[message.recipient]
        with condition:
            if message.step in self._abandoned[message.recipient]:
                return  # the recipient sat this step out; discard late mail
            bucket = self._buffers[message.recipient][(message.kind, message.step)]
            # Keep only the first message per sender (deduplication).
            bucket.setdefault(message.sender, message)
            condition.notify_all()

    def abandon_step(self, node_id: str, step: int) -> None:
        """Drop (and keep dropping) ``node_id``'s mail for a sat-out step.

        A node that sits a step out never collects its quorums, so without
        this the peers' broadcasts for that step would sit in its buffers
        for the rest of the run — one model-sized payload per peer per
        skipped step.
        """
        condition = self._conditions[node_id]
        with condition:
            self._abandoned[node_id].add(step)
            buffers = self._buffers[node_id]
            for key in [key for key in buffers if key[1] == step]:
                del buffers[key]

    def send(self, sender: str, recipient: str, kind: MessageKind, step: int,
             payload: Optional[np.ndarray]) -> None:
        """Send a message; ``payload=None`` models a silent Byzantine node."""
        if payload is None:
            return
        if recipient not in self._conditions:
            raise KeyError(f"unknown recipient '{recipient}'")
        message = Message(sender=sender, recipient=recipient, kind=kind,
                          step=step, payload=np.asarray(payload, dtype=np.float64))
        with self._lock:
            self.messages_sent += 1
        delay = 0.0
        duplicate = False
        if self.jitter > 0:
            with self._lock:  # the generator is not thread-safe
                delay = float(self._rng.uniform(0.0, self.jitter))
        if self.faults is not None:
            decision = self.faults.on_send(sender, recipient, kind.value, step)
            if not decision.deliver:
                with self._lock:
                    self.messages_suppressed += 1
                return
            delay = decision.apply_to_delay(delay)
            duplicate = decision.duplicate
        self._schedule(message, delay)
        if duplicate:
            # Mirrors the simulator: the copy arrives one delay later and
            # the per-sender deduplication at the receiver absorbs it.
            self._schedule(Message(sender=sender, recipient=recipient,
                                   kind=kind, step=step,
                                   payload=message.payload), 2 * delay)

    def _schedule(self, message: Message, delay: float) -> None:
        if delay > 0:
            timer = threading.Timer(delay, self._deliver, args=(message,))
            timer.daemon = True
            timer.start()
        else:
            self._deliver(message)

    def broadcast(self, sender: str, recipients: Sequence[str], kind: MessageKind,
                  step: int, payload: Optional[np.ndarray]) -> None:
        for recipient in recipients:
            self.send(sender, recipient, kind, step, payload)

    def wait_quorum(self, recipient: str, kind: MessageKind, step: int,
                    quorum: int, timeout: float = 30.0) -> List[np.ndarray]:
        """Block until ``quorum`` distinct senders delivered, return payloads."""
        condition = self._conditions[recipient]
        deadline = time.monotonic() + timeout
        with condition:
            while True:
                bucket = self._buffers[recipient][(kind, step)]
                if len(bucket) >= quorum:
                    ordered = sorted(bucket.values(), key=lambda m: m.message_id)
                    payloads = [m.payload for m in ordered[:quorum]]
                    # Late messages for this (kind, step) are discarded.
                    del self._buffers[recipient][(kind, step)]
                    return payloads
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise QuorumTimeout(
                        f"{recipient} timed out waiting for {quorum} "
                        f"'{kind.value}' messages at step {step} "
                        f"(got {len(bucket)})"
                    )
                condition.wait(timeout=remaining)


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
        Optional stateful :class:`~repro.adversary.Adversary` controlling
        every actually-Byzantine node (mutually exclusive with the legacy
        per-node attacks).  Adversaries that observe the round's honest
        gradients are fed through an observation board: honest workers
        publish each gradient as they compute it and the Byzantine node
        threads block (bounded by ``quorum_timeout``) until the round is
        fully observable — the in-process equivalent of the paper's
        omniscient adversary reading every node's memory.
    sharding, hetero:
        Per-worker data views, identical to the simulated trainers: the
        legacy ``sharding`` strategies or a
        :class:`~repro.hetero.HeteroSpec` (Dirichlet/shard partitions,
        imbalance, drift, worker profiles).  The partition is a pure
        function of ``(seed, num_workers, hetero)``, so a scenario means
        the same per-worker data here as on the simulated clock.  Profile
        ``delay_multiplier``\\ s become real sleeps
        (``HETERO_STRAGGLER_UNIT`` seconds per unit of excess delay) on
        top of any explicit ``straggler_sleep``.
    """

    #: wall-clock seconds one unit of profile delay_multiplier excess adds
    HETERO_STRAGGLER_UNIT = 0.002

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
        if num_attacking_workers > config.num_byzantine_workers:
            raise ValueError("more attacking workers than declared Byzantine workers")
        if num_attacking_servers > config.num_byzantine_servers:
            raise ValueError("more attacking servers than declared Byzantine servers")
        from repro.adversary.engine import wire_attacks  # lazy: heavy import

        # Wiring first: mutual-exclusion errors must surface before any
        # dataset/transport work happens.
        (self.adversary_coordinator, worker_attacks, server_attacks,
         attacking_workers, attacking_servers) = wire_attacks(
            config=config, seed=seed,
            worker_attack=worker_attack,
            num_attacking_workers=num_attacking_workers,
            server_attack=server_attack,
            num_attacking_servers=num_attacking_servers,
            gradient_rule_name=gradient_rule_name, adversary=adversary)
        self.config = config
        self.schedule = schedule if schedule is not None else ConstantSchedule(0.001)
        self.quorum_timeout = quorum_timeout
        self.straggler_sleep = dict(straggler_sleep or {})

        worker_ids = config.worker_ids()
        server_ids = config.server_ids()
        self.fault_schedule = fault_schedule
        self.faults = None
        if fault_schedule:
            fault_schedule.validate(known_nodes=worker_ids + server_ids)
            self.faults = FaultController(fault_schedule, seed=seed)
        self.transport = ThreadedTransport(worker_ids + server_ids, jitter=jitter,
                                           seed=seed, fault_controller=self.faults)

        self.hetero = hetero
        shards = partition_dataset(train_dataset, len(worker_ids),
                                   sharding=sharding, hetero=hetero,
                                   seed=seed)
        profiles = [hetero.profile_for(index) if hetero else DEFAULT_PROFILE
                    for index in range(len(worker_ids))]
        for worker_id, profile in zip(worker_ids, profiles):
            if profile.delay_multiplier != 1.0:
                self.straggler_sleep[worker_id] = (
                    self.straggler_sleep.get(worker_id, 0.0)
                    + (profile.delay_multiplier - 1.0)
                    * self.HETERO_STRAGGLER_UNIT)

        self.adversary = adversary
        #: set only for adversaries that observe the round's gradients —
        #: publishing to a board nobody reads would just accumulate copies
        self._observation_board = None
        if adversary is not None and adversary.requires_observation \
                and attacking_workers:
            self.adversary_coordinator.enable_board(
                self._expected_publishers, timeout=quorum_timeout)
            self._observation_board = self.adversary_coordinator
        self._attacking_workers = attacking_workers

        # Seed constants match the simulated trainers (loader 1000+i,
        # worker rng 2000+i, server rng 3000+i): a scenario's per-worker
        # data stream and attack noise are the same cluster under every
        # runtime, which is what makes the cross-runtime heterogeneity
        # equivalence tests possible at all.
        self.workers = []
        for index, worker_id in enumerate(worker_ids):
            profile = profiles[index]
            loader = DataLoader(shards[index],
                                batch_size=profile.batch_size or batch_size,
                                seed=seed + 1000 + index)
            self.workers.append(WorkerNode(
                node_id=worker_id, model=model_fn(), loader=loader,
                model_aggregator=get_rule(model_rule_name,
                                          num_byzantine=config.num_byzantine_servers),
                attack=worker_attacks[worker_id],
                seed=seed + 2000 + index,
                local_steps=profile.local_steps,
                schedule=self.schedule))

        self.servers = []
        for index, server_id in enumerate(server_ids):
            self.servers.append(ServerNode(
                node_id=server_id, model=model_fn(),
                gradient_aggregator=get_rule(gradient_rule_name,
                                             num_byzantine=config.num_byzantine_workers),
                model_aggregator=get_rule(model_rule_name,
                                          num_byzantine=config.num_byzantine_servers),
                schedule=self.schedule,
                attack=server_attacks[server_id],
                seed=seed + 3000 + index))

        if self.faults is not None:
            for node in [*self.workers, *self.servers]:
                node.attack = self.faults.gate_attack(node.node_id, node.attack)

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
    def correct_servers(self) -> List[ServerNode]:
        return [server for server in self.servers if not server.is_byzantine]

    def global_parameters(self) -> np.ndarray:
        vectors = [server.current_parameters() for server in self.correct_servers]
        return active_backend().median(np.stack(vectors), axis=0)

    # ------------------------------------------------------------------ #
    def _expected_publishers(self, step: int) -> List[str]:
        """Honest workers whose gradients the adversary can observe at a step.

        Crashed or quorum-starved workers sit the step out and never
        compute a gradient, so the observation board must not wait for
        them — the participation fixpoint is the same one the runtimes use
        to decide who stalls.
        """
        honest = [worker_id for worker_id in self.config.worker_ids()
                  if worker_id not in self._attacking_workers]
        if self.faults is None:
            return honest
        workers, _ = self.faults.participating_nodes(
            self.config.worker_ids(), self.config.server_ids(),
            self.config.model_quorum, self.config.gradient_quorum, step)
        participating = set(workers)
        return [worker_id for worker_id in honest
                if worker_id in participating]

    # ------------------------------------------------------------------ #
    def _maybe_straggle(self, node_id: str) -> None:
        delay = self.straggler_sleep.get(node_id, 0.0)
        if delay > 0:
            time.sleep(delay)

    def _sits_out(self, node_id: str, step: int) -> bool:
        """Whether faults force ``node_id`` to sit out ``step``.

        Crashed nodes do nothing for the step; nodes that faults leave
        short of a quorum — directly or transitively through other stalled
        nodes — sit it out too, judged by the same participation fixpoint
        the simulated trainer uses (see
        :meth:`repro.faults.FaultController.participating_nodes`), so no
        node ever blocks on a peer that is sitting the step out.  Skipped
        steps cost no wall-clock: the node's mail for the step is
        discarded and its next ``wait_quorum`` simply blocks until its
        peers reach that step.
        """
        if self.faults is None:
            return False
        self.faults.on_step(step)
        workers, servers = self.faults.participating_nodes(
            self.config.worker_ids(), self.config.server_ids(),
            self.config.model_quorum, self.config.gradient_quorum, step)
        if node_id in workers or node_id in servers:
            return False
        self.transport.abandon_step(node_id, step)
        return True

    def _worker_loop(self, worker: WorkerNode, num_steps: int) -> None:
        server_ids = self.config.server_ids()
        tracer = get_tracer()
        registry = get_registry()
        for step in range(num_steps):
            if self._sits_out(worker.node_id, step):
                continue
            with tracer.span("thr.worker.gather", step=step,
                             node=worker.node_id), \
                    registry.timer("repro_step_phase_seconds",
                                   runtime="threads", phase="gather"):
                models = self.transport.wait_quorum(
                    worker.node_id, MessageKind.MODEL_TO_WORKER, step,
                    quorum=self.config.model_quorum,
                    timeout=self.quorum_timeout)
            with tracer.span("thr.worker.compute", step=step,
                             node=worker.node_id), \
                    registry.timer("repro_step_phase_seconds",
                                   runtime="threads", phase="compute"):
                result = worker.compute_gradient(models, step)
            if not worker.is_byzantine:
                board = self._observation_board
                if board is not None \
                        and board.adversary.observation_needed(step):
                    # The omniscient adversary reads this worker's memory
                    # (skipped on rounds whose plan ignores the
                    # observation, e.g. a sleeper's dormant window — no
                    # point copying gradients nobody will read).
                    board.publish(worker.node_id, step, result.gradient)
                with self._record_lock:
                    self._step_losses[step][worker.node_id] = result.loss
            self._maybe_straggle(worker.node_id)
            for server_id in server_ids:
                payload = worker.outgoing_gradient(result, step,
                                                   recipient=server_id)
                self.transport.send(worker.node_id, server_id,
                                    MessageKind.GRADIENT_TO_SERVER, step, payload)

    def _server_loop(self, server: ServerNode, num_steps: int) -> None:
        start_time = self._start_time
        worker_ids = self.config.worker_ids()
        server_ids = self.config.server_ids()
        tracer = get_tracer()
        registry = get_registry()
        for step in range(num_steps):
            if self._sits_out(server.node_id, step):
                continue
            self._maybe_straggle(server.node_id)
            # Phase 1: broadcast the current model to the workers.
            with tracer.span("thr.server.broadcast", step=step,
                             node=server.node_id), \
                    registry.timer("repro_step_phase_seconds",
                                   runtime="threads", phase="broadcast"):
                for worker_id in worker_ids:
                    payload = server.outgoing_model(step, recipient=worker_id)
                    self.transport.send(server.node_id, worker_id,
                                        MessageKind.MODEL_TO_WORKER, step,
                                        payload)
            # Phase 2: gather gradients and update (Byzantine servers skip the
            # honest computation — whatever they hold is corrupted on send).
            with tracer.span("thr.server.gather", step=step,
                             node=server.node_id), \
                    registry.timer("repro_step_phase_seconds",
                                   runtime="threads", phase="gather"):
                gradients = self.transport.wait_quorum(
                    server.node_id, MessageKind.GRADIENT_TO_SERVER, step,
                    quorum=self.config.gradient_quorum,
                    timeout=self.quorum_timeout)
            with tracer.span("thr.server.aggregate", step=step,
                             node=server.node_id), \
                    registry.timer("repro_step_phase_seconds",
                                   runtime="threads", phase="aggregate"):
                server.apply_gradients(gradients, step)
            # Phase 3: exchange models between servers and take the median.
            with tracer.span("thr.server.apply", step=step,
                             node=server.node_id), \
                    registry.timer("repro_step_phase_seconds",
                                   runtime="threads", phase="apply"):
                for server_id in server_ids:
                    payload = server.outgoing_model(step, recipient=server_id) \
                        if server_id != server.node_id \
                        else server.current_parameters()
                    self.transport.send(server.node_id, server_id,
                                        MessageKind.MODEL_TO_SERVER, step,
                                        payload)
                models = self.transport.wait_quorum(
                    server.node_id, MessageKind.MODEL_TO_SERVER, step,
                    quorum=self.config.model_quorum,
                    timeout=self.quorum_timeout)
                server.merge_models(models)
            with self._record_lock:
                self._step_times[step] = max(self._step_times.get(step, 0.0),
                                             time.perf_counter() - start_time)

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

        def launch(target, node) -> None:
            errors: List[BaseException] = []

            def runner() -> None:
                try:
                    target(node, num_steps)
                except BaseException as exc:  # noqa: BLE001 - surfaced to caller
                    errors.append(exc)

            thread = threading.Thread(target=runner, daemon=True,
                                      name=f"node-{node.node_id}")
            handles.append(ThreadedNodeHandle(node_id=node.node_id, thread=thread,
                                              error=errors))
            thread.start()

        for worker in self.workers:
            launch(self._worker_loop, worker)
        for server in self.servers:
            launch(self._server_loop, server)

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
