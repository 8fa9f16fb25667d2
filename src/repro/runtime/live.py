"""The live GuanYu node and its mailbox: what the wall-clock runtimes share.

The threaded runtime runs one :class:`LiveNode` per thread, the process
cluster one per OS process; both run *these* loops over the nodes their
:class:`~repro.core.wiring.ClusterWiring` built, and both talk to the rest
of the cluster through one :class:`Endpoint` per node — the paper's
primitive, *send to all, then wait for the first q distinct senders*.  The
mailbox and the send policy exist once, here; a subclass supplies only the
wire: :class:`~repro.runtime.threads.ThreadEndpoint` hands a payload to the
peer's :meth:`Endpoint.deliver`,
:class:`~repro.runtime.cluster.transport.SocketTransport` writes a frame to
a socket.  What else legitimately differs between the two runtimes is four
overridable hooks: :meth:`~LiveNode.publish_observation`,
:meth:`~LiveNode.report_loss`, :meth:`~LiveNode.report_step` and
:meth:`~LiveNode.on_scheduled_crash`.  Span names and the metric label are
data (``thr``/``threads``, ``clu``/``cluster``), so both runtimes' spans
come from the same lines.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.nodes import ServerNode, WorkerNode
from repro.core.wiring import ClusterWiring
from repro.faults import FaultController
from repro.network.message import MessageKind
from repro.obs.telemetry import phase


class QuorumTimeout(RuntimeError):
    """Raised when a node cannot gather its quorum within the deadline."""


class Endpoint:
    """One node's mailbox and send policy on an asynchronous network.

    Receiving: per-``(kind, step)`` buckets keyed by sender.  A frame counts
    once per sender, and only if the sender is one of the wiring's node ids
    *and* its role may send that kind (models come from servers, gradients
    from workers) — anything else is dropped and counted in
    ``messages_suppressed``, so neither a worker nor a stranger can stand in
    for a parameter server in a quorum.  The id lists are known at
    construction: a fast peer's honest frame may precede any address map.

    Sending: ``None`` is Byzantine silence; otherwise one jitter draw, then
    the optional :class:`~repro.faults.FaultController` is consulted once
    per message — crashes and partitions suppress it, per-link overrides
    scale/extend the delay, drops and duplicates use its hash-based sampling
    (independent of scheduling) — and the frame goes to the wire
    (:meth:`_transmit`, the one thing a subclass adds), now or on a timer.
    """

    def __init__(self, node_id: str, worker_ids: Sequence[str],
                 server_ids: Sequence[str], jitter: float = 0.0,
                 seed: int = 0,
                 fault_controller: Optional[FaultController] = None) -> None:
        self.node_id = node_id
        self.jitter = jitter
        self.faults = fault_controller
        #: who may send each kind of frame (kinds travel as their values)
        self._senders = {
            MessageKind.MODEL_TO_WORKER.value: frozenset(server_ids),
            MessageKind.MODEL_TO_SERVER.value: frozenset(server_ids),
            MessageKind.GRADIENT_TO_SERVER.value: frozenset(worker_ids)}
        self._node_ids = frozenset(worker_ids) | frozenset(server_ids)
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()  # counters and the generator
        self._condition = threading.Condition()
        self._buffers: Dict[Tuple[str, int], Dict[str, np.ndarray]] = \
            defaultdict(dict)
        self._abandoned: set = set()
        self.messages_sent = 0
        self.messages_suppressed = 0

    def _suppress(self) -> None:
        with self._lock:
            self.messages_suppressed += 1

    # ------------------------------------------------------------------ #
    # Receiving
    # ------------------------------------------------------------------ #
    def deliver(self, sender: str, kind: str, step: int,
                payload: np.ndarray) -> None:
        """File one frame that came off the wire."""
        if sender not in self._senders.get(kind, ()):
            self._suppress()
            return
        with self._condition:
            if step in self._abandoned:
                return  # this node sat the step out; discard late mail
            # Keep only the first frame per sender (deduplication).
            self._buffers[(kind, step)].setdefault(sender, payload)
            self._condition.notify_all()

    def abandon_step(self, step: int) -> None:
        """Drop (and keep dropping) this node's mail for a sat-out step.

        A node that sits a step out never collects its quorums, so without
        this the peers' broadcasts for that step would sit in its buffers
        for the rest of the run — one model-sized payload per peer per
        skipped step.
        """
        with self._condition:
            self._abandoned.add(step)
            for key in [key for key in self._buffers if key[1] == step]:
                del self._buffers[key]

    def wait_quorum(self, kind: MessageKind, step: int, quorum: int,
                    timeout: float = 30.0) -> List[np.ndarray]:
        """Block until ``quorum`` distinct senders delivered; return their
        payloads in canonical sender order — the one order that means the
        same thing in every process."""
        deadline = time.monotonic() + timeout
        with self._condition:
            while True:
                bucket = self._buffers[(kind.value, step)]
                if len(bucket) >= quorum:
                    payloads = [bucket[sender]
                                for sender in sorted(bucket)[:quorum]]
                    # Late frames for this (kind, step) are discarded.
                    del self._buffers[(kind.value, step)]
                    return payloads
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise QuorumTimeout(
                        f"{self.node_id} timed out waiting for {quorum} "
                        f"'{kind.value}' messages at step {step} "
                        f"(got {len(bucket)})")
                self._condition.wait(timeout=remaining)

    # ------------------------------------------------------------------ #
    # Sending
    # ------------------------------------------------------------------ #
    def send(self, recipient: str, kind: MessageKind, step: int,
             payload: Optional[np.ndarray]) -> None:
        """Send a message; ``payload=None`` models a silent Byzantine node."""
        if payload is None:
            return
        if recipient not in self._node_ids:
            raise KeyError(f"unknown recipient '{recipient}'")
        payload = np.asarray(payload, dtype=np.float64)
        delay = 0.0
        duplicate = False
        with self._lock:
            self.messages_sent += 1
            if self.jitter > 0:  # the generator is not thread-safe
                delay = float(self._rng.uniform(0.0, self.jitter))
        if self.faults is not None:
            decision = self.faults.on_send(self.node_id, recipient,
                                           kind.value, step)
            if not decision.deliver:
                self._suppress()
                return
            delay = decision.apply_to_delay(delay)
            duplicate = decision.duplicate
        frame = (recipient, kind.value, step, payload)
        self._schedule(delay, frame)
        if duplicate:
            # Mirrors the simulator: the copy arrives one delay later and
            # the per-sender deduplication at the receiver absorbs it.
            self._schedule(2 * delay, frame)

    def _schedule(self, delay: float, frame: tuple) -> None:
        if delay > 0:
            timer = threading.Timer(delay, self._transmit, args=frame)
            timer.daemon = True
            timer.start()
        else:
            self._transmit(*frame)

    def _transmit(self, recipient: str, kind: str, step: int,
                  payload: np.ndarray) -> None:
        """Put one frame on the wire to ``recipient``."""
        raise NotImplementedError


class LiveNode:
    """One worker or parameter server driven on the real clock.

    Parameters
    ----------
    wiring:
        The scenario wiring ``node`` was built from.
    node:
        A :class:`~repro.core.nodes.WorkerNode` or
        :class:`~repro.core.nodes.ServerNode`.
    endpoint:
        This node's :class:`Endpoint`.
    quorum_timeout:
        Seconds a quorum wait may block before it raises.
    straggle:
        Seconds slept once per step, modelling a slow node.
    """

    #: span-name prefix and ``repro_step_phase_seconds{runtime=}`` label
    span_prefix = "live"
    runtime_label = "live"

    def __init__(self, wiring: ClusterWiring, node, endpoint,
                 quorum_timeout: float, straggle: float = 0.0) -> None:
        self.wiring = wiring
        self.node = node
        self.node_id: str = node.node_id
        self.endpoint = endpoint
        self.quorum_timeout = quorum_timeout
        self.straggle = straggle

    # ------------------------------------------------------------------ #
    # Hooks: what differs between threads and processes
    # ------------------------------------------------------------------ #
    def publish_observation(self, step: int, gradient: np.ndarray) -> None:
        """Make this honest worker's gradient readable by the adversary."""
        raise NotImplementedError

    def report_loss(self, step: int, loss: float) -> None:
        """Record this honest worker's training loss for ``step``."""
        raise NotImplementedError

    def report_step(self, step: int) -> None:
        """This server finished ``step`` (wall-clock time, snapshots)."""
        raise NotImplementedError

    def on_scheduled_crash(self, step: int) -> None:
        """The fault schedule has this node crashed at ``step``.

        Returning lets the node sit the step out like any stalled node;
        a real process parks here until it is killed instead.
        """

    # ------------------------------------------------------------------ #
    def run_steps(self, first_step: int, num_steps: int) -> None:
        """Run protocol steps ``first_step .. num_steps - 1``.

        A node that faults leave short of a quorum — crashed, or stalled
        directly or transitively, by the same participation fixpoint every
        runtime uses — sits the step out: its mail for the step is
        discarded and skipping costs no wall-clock, since the next
        ``wait_quorum`` simply blocks until the peers reach that step.
        """
        role = "worker" if isinstance(self.node, WorkerNode) else "server"
        step_fn = self._worker_step if role == "worker" else self._server_step
        self._span_stem = f"{self.span_prefix}.{role}."
        faults = self.wiring.faults
        for step in range(first_step, num_steps):
            if self.wiring.sits_out(self.node_id, step):
                if not faults.node_alive(self.node_id, step):
                    self.on_scheduled_crash(step)
                self.endpoint.abandon_step(step)
                continue
            step_fn(step)

    def _maybe_straggle(self) -> None:
        if self.straggle > 0:
            time.sleep(self.straggle)

    # ------------------------------------------------------------------ #
    def _worker_step(self, step: int) -> None:
        worker: WorkerNode = self.node
        config = self.wiring.config
        with phase(self._span_stem + "gather", runtime=self.runtime_label,
                   step=step, node=self.node_id):
            models = self.endpoint.wait_quorum(
                MessageKind.MODEL_TO_WORKER, step,
                quorum=config.model_quorum, timeout=self.quorum_timeout)
        with phase(self._span_stem + "compute", runtime=self.runtime_label,
                   step=step, node=self.node_id):
            result = worker.compute_gradient(models, step)
        if not worker.is_byzantine:
            if self.wiring.needs_observation_board \
                    and self.wiring.adversary.observation_needed(step):
                # The omniscient adversary reads this worker's memory
                # (skipped on rounds whose plan ignores the observation,
                # e.g. a sleeper's dormant window — no point copying
                # gradients nobody will read).
                self.publish_observation(step, result.gradient)
            self.report_loss(step, result.loss)
        self._maybe_straggle()
        for server_id in self.wiring.server_ids:
            payload = worker.outgoing_gradient(result, step,
                                               recipient=server_id)
            self.endpoint.send(server_id, MessageKind.GRADIENT_TO_SERVER,
                               step, payload)

    def _server_step(self, step: int) -> None:
        server: ServerNode = self.node
        config = self.wiring.config
        self._maybe_straggle()
        # Phase 1: broadcast the current model to the workers.
        with phase(self._span_stem + "broadcast", runtime=self.runtime_label,
                   step=step, node=self.node_id):
            for worker_id in self.wiring.worker_ids:
                payload = server.outgoing_model(step, recipient=worker_id)
                self.endpoint.send(worker_id, MessageKind.MODEL_TO_WORKER,
                                   step, payload)
        # Phase 2: gather gradients and update (Byzantine servers skip the
        # honest computation — whatever they hold is corrupted on send).
        with phase(self._span_stem + "gather", runtime=self.runtime_label,
                   step=step, node=self.node_id):
            gradients = self.endpoint.wait_quorum(
                MessageKind.GRADIENT_TO_SERVER, step,
                quorum=config.gradient_quorum, timeout=self.quorum_timeout)
        with phase(self._span_stem + "aggregate", runtime=self.runtime_label,
                   step=step, node=self.node_id):
            server.apply_gradients(gradients, step)
        # Phase 3: exchange models between servers and take the median.
        with phase(self._span_stem + "apply", runtime=self.runtime_label,
                   step=step, node=self.node_id):
            for server_id in self.wiring.server_ids:
                payload = server.outgoing_model(step, recipient=server_id) \
                    if server_id != self.node_id \
                    else server.current_parameters()
                self.endpoint.send(server_id, MessageKind.MODEL_TO_SERVER,
                                   step, payload)
            models = self.endpoint.wait_quorum(
                MessageKind.MODEL_TO_SERVER, step,
                quorum=config.model_quorum, timeout=self.quorum_timeout)
            server.merge_models(models)
        self.report_step(step)
