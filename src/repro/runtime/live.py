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
a socket.  What else legitimately differs between the two runtimes is two
overridable hooks, :meth:`~LiveNode.publish_observation` and
:meth:`~LiveNode.on_scheduled_crash`.  Span names and the metric label are
data (``thr``/``threads``, ``clu``/``cluster``), so both runtimes' spans
come from the same lines.

A node keeps its own results, returned by :meth:`LiveNode.report`; the
threaded runtime reads each node's report in memory after the join, a
cluster node ships it on its last control frame, and :func:`live_history`
is the one place reports are folded into a history.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import nullcontext
from typing import (Collection, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.core.config import ClusterConfig
from repro.core.nodes import WorkerNode, max_pairwise_distance
from repro.core.wiring import ClusterWiring
from repro.faults import FaultController
from repro.network.message import ROUTES, MessageKind
from repro.obs.history import StepRecord, TrainingHistory
from repro.obs.telemetry import phase

#: the span of a part of a step that is not timed on its own
_UNTIMED = nullcontext()


class QuorumTimeout(RuntimeError):
    """Raised when a node cannot gather its quorum within the deadline."""


class Endpoint:
    """One node's mailbox and send policy on an asynchronous network.

    Receiving: per-``(kind, step)`` buckets keyed by sender.  A frame counts
    once per sender, and only if the sender is one of the wiring's node ids
    *and* its role sends that kind (:data:`~repro.network.message.ROUTES`)
    — anything else is dropped and counted in ``messages_suppressed``, so
    neither a worker nor a stranger can stand in for a parameter server in
    a quorum.  The id lists are known at construction: a fast peer's
    honest frame may precede any address map.  The node's one waiter is
    woken once per quorum — by the frame that completes the bucket it
    waits on — not once per frame.

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
            kind.value: frozenset(route.of(worker_ids, server_ids)[0])
            for kind, route in ROUTES.items()}
        self._node_ids = frozenset(worker_ids) | frozenset(server_ids)
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()  # counters and the generator
        self._condition = threading.Condition()
        self._buffers: Dict[Tuple[str, int], Dict[str, np.ndarray]] = \
            defaultdict(dict)
        self._abandoned: set = set()
        #: the ``((kind, step), quorum)`` the node is blocked on, if any
        self._awaited: Optional[Tuple[Tuple[str, int], int]] = None
        #: kind → the last step a quorum of it was collected for.  Steps
        #: are collected in order, so any later frame for that step or an
        #: earlier one is late and dropped on arrival.
        self._collected: Dict[str, int] = {}
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
            if step in self._abandoned \
                    or step <= self._collected.get(kind, -1):
                return  # sat out or already collected: discard late mail
            # Keep only the first frame per sender (deduplication).
            bucket = self._buffers[(kind, step)]
            bucket.setdefault(sender, payload)
            awaited = self._awaited
            if awaited is not None and awaited[0] == (kind, step) \
                    and len(bucket) >= awaited[1]:
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
        key = (kind.value, step)
        with self._condition:
            while True:
                bucket = self._buffers[key]
                if len(bucket) >= quorum:
                    payloads = [bucket[sender]
                                for sender in sorted(bucket)[:quorum]]
                    # Late frames for this (kind, step) are discarded.
                    del self._buffers[key]
                    self._collected[kind.value] = max(
                        step, self._collected.get(kind.value, -1))
                    return payloads
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise QuorumTimeout(
                        f"{self.node_id} timed out waiting for {quorum} "
                        f"'{kind.value}' messages at step {step} "
                        f"(got {len(bucket)})")
                # ``deliver`` sees this only while the lock is released:
                # during the wait.
                self._awaited = (key, quorum)
                self._condition.wait(timeout=remaining)
                self._awaited = None

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
        self.role = "worker" if isinstance(node, WorkerNode) else "server"
        self.endpoint = endpoint
        self.quorum_timeout = quorum_timeout
        self.straggle = straggle
        self._walk = self._route_walk()
        #: what a server's step times count from; a cluster node resets it
        #: when its supervisor starts the run
        self.clock_origin = time.perf_counter()
        #: ``(step, loss)`` of an honest worker, ``(step, seconds since
        #: clock_origin)`` of a server, as each step finishes
        self._losses: List[Tuple[int, float]] = []
        self._step_times: List[Tuple[int, float]] = []

    def report(self) -> Dict:
        """This node's run so far, the record :func:`live_history` folds:
        an honest worker's ``losses``, a server's ``step_times`` and
        ``parameters`` (``None`` for a worker)."""
        return {"losses": list(self._losses),
                "step_times": list(self._step_times),
                "parameters": (self.node.current_parameters()
                               if self.role == "server" else None)}

    # ------------------------------------------------------------------ #
    # Hooks: what differs between threads and processes
    # ------------------------------------------------------------------ #
    def publish_observation(self, step: int, gradient: np.ndarray) -> None:
        """Make this honest worker's gradient readable by the adversary."""
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
        faults = self.wiring.faults
        for step in range(first_step, num_steps):
            if self.wiring.sits_out(self.node_id, step):
                if not faults.node_alive(self.node_id, step):
                    self.on_scheduled_crash(step)
                self.endpoint.abandon_step(step)
                continue
            self._step(step)

    def _route_walk(self) -> Tuple:
        """This node's part of :data:`~repro.network.message.ROUTES`, in
        step order, worked out once: per route it sends or collects on,
        ``(kind, recipients, quorum, spans)`` — the ids it sends to (none
        if it only collects), the quorum it collects (0 if it only sends)
        and the span names of the send, the wait and the reduction.

        A server times its sends under the route's scatter name, and its
        exchange with the other servers (send, wait, merge) is that one
        span; a worker's send is not timed.  A recipient times its wait as
        ``gather`` and its reduction under the route's collect name.
        """
        wiring, role = self.wiring, self.role
        stem = f"{self.span_prefix}.{role}."
        walk = []
        for kind, route in ROUTES.items():
            sends, collects = route.senders == role, route.recipients == role
            if not (sends or collects):
                continue
            recipients = tuple(route.of(wiring.worker_ids,
                                        wiring.server_ids)[1]) if sends else ()
            quorum = route.quorum(wiring.config.model_quorum,
                                  wiring.config.gradient_quorum) \
                if collects else 0
            spans = ((stem + route.scatter if role == "server" else None,
                      None, None) if sends
                     else (None, stem + "gather", stem + route.collect))
            walk.append((kind, recipients, quorum, spans))
        return tuple(walk)

    def _span(self, name: Optional[str], step: int):
        """The span ``name`` of this node at ``step``; ``None`` times
        nothing."""
        if name is None:
            return _UNTIMED
        return phase(name, runtime=self.runtime_label, step=step,
                     node=self.node_id)

    def _step(self, step: int) -> None:
        """One protocol step: one walk over this node's part of
        :data:`~repro.network.message.ROUTES` (:meth:`_route_walk`).

        On each route the node sends its ``outgoing`` to the recipients (a
        server's model to itself is its current parameters, no attack
        asked), then waits for its quorum and reduces it (its
        ``receive``).  It straggles once, before its first send.  A
        Byzantine server waits for its quorums like any other, which keeps
        its pace and empties its mailbox, but installs nothing
        (:meth:`~repro.core.nodes.ServerNode.receive`).
        """
        node, endpoint, straggle = self.node, self.endpoint, self.straggle
        for kind, recipients, quorum, (send, wait, reduce) in self._walk:
            if recipients and straggle > 0:
                time.sleep(straggle)
                straggle = 0.0
            with self._span(send, step):
                for recipient in recipients:
                    endpoint.send(recipient, kind, step,
                                  node.current_parameters()
                                  if recipient == self.node_id
                                  else node.outgoing(step, recipient))
                if not quorum:
                    continue
                with self._span(wait, step):
                    payloads = endpoint.wait_quorum(kind, step, quorum,
                                                    self.quorum_timeout)
                with self._span(reduce, step):
                    result = node.receive(kind, payloads, step)
            if self.role == "worker" and not node.is_byzantine:
                if self.wiring.needs_observation_board \
                        and self.wiring.adversary.observation_needed(step):
                    # The omniscient adversary reads this worker's memory
                    # (skipped on rounds whose plan ignores the observation,
                    # e.g. a sleeper's dormant window — no point copying
                    # gradients nobody will read).
                    self.publish_observation(step, result.gradient)
                self._losses.append((step, float(result.loss)))
        if self.role == "server":
            self._step_times.append(
                (step, time.perf_counter() - self.clock_origin))


def live_history(label: str, config: ClusterConfig, *, adversary, faults,
                 hetero, schedule, num_steps: int,
                 reports: Mapping[str, Sequence[Mapping]],
                 attacking_servers: Collection[str]) -> TrainingHistory:
    """The history of a live run, folded from its nodes' reports.

    ``reports`` maps a node id to the :meth:`LiveNode.report` of each of its
    incarnations, in the order they ran.  A step's loss is the mean over the
    honest workers that reported one, taken in worker-id order whatever
    order they finished in; its time is the latest server's.  The server
    spread is measured once, over every honest server's last reported
    parameters — a server that crashed for good included — and lands on
    the last step.  ``adversary``, ``faults`` and ``hetero`` are built
    objects or spec fields.
    """
    losses: Dict[int, List[float]] = defaultdict(list)
    for worker_id in config.worker_ids():
        for report in reports.get(worker_id, ()):
            for step, loss in report["losses"]:
                losses[step].append(loss)
    times: Dict[int, float] = {}
    parameters = []
    for server_id in config.server_ids():
        incarnations = reports.get(server_id, ())
        for report in incarnations:
            for step, elapsed in report["step_times"]:
                times[step] = max(times.get(step, 0.0), elapsed)
        if incarnations and server_id not in attacking_servers:
            parameters.append(incarnations[-1]["parameters"])
    spread = max_pairwise_distance(parameters)
    history = TrainingHistory(label=label, config={
        **config.as_dict(),
        "adversary": getattr(adversary, "name", None),
        "faults": faults.to_dict() if faults else None,
        "hetero": hetero.to_dict() if hetero else None})
    for step in range(num_steps):
        history.add(StepRecord(
            step=step,
            simulated_time=times.get(step, 0.0),
            train_loss=float(np.mean(losses[step])) if losses[step] else None,
            max_server_spread=spread if step == num_steps - 1 else None,
            learning_rate=schedule(step),
        ))
    return history
