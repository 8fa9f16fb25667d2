"""The one live GuanYu node: the worker loop and the server loop of the
wall-clock runtimes.

The threaded runtime runs one :class:`LiveNode` per thread, the process
cluster one per OS process; both run *these* loops over the nodes their
:class:`~repro.core.wiring.ClusterWiring` built.  A loop talks to the rest
of the cluster through a per-node **endpoint** with
:class:`~repro.runtime.cluster.transport.SocketTransport`'s shape —

* ``wait_quorum(kind, step, quorum, timeout)`` → payload list,
* ``send(recipient, kind, step, payload)`` (``None`` = Byzantine silence),
* ``abandon_step(step)`` —

which :meth:`repro.runtime.threads.ThreadedTransport.endpoint` serves as a
node-bound view of the shared in-process transport.  What legitimately
differs between the two runtimes is four overridable hooks:
:meth:`~LiveNode.publish_observation`, :meth:`~LiveNode.report_loss`,
:meth:`~LiveNode.report_step` and :meth:`~LiveNode.on_scheduled_crash`.
Span names and the metric label are data (``thr``/``threads``,
``clu``/``cluster``), so both runtimes' spans come from the same lines.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.nodes import ServerNode, WorkerNode
from repro.core.wiring import ClusterWiring
from repro.network.message import MessageKind
from repro.obs.telemetry import get_registry
from repro.obs.tracer import get_tracer


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
        This node's transport endpoint (see the module docstring).
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
        self._tracer = get_tracer()
        self._registry = get_registry()
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

    def _phase(self, phase: str, step: int):
        """The ``(span, histogram timer)`` pair a protocol phase runs in."""
        return (self._tracer.span(self._span_stem + phase, step=step,
                                  node=self.node_id),
                self._registry.timer("repro_step_phase_seconds",
                                     runtime=self.runtime_label, phase=phase))

    def _maybe_straggle(self) -> None:
        if self.straggle > 0:
            time.sleep(self.straggle)

    # ------------------------------------------------------------------ #
    def _worker_step(self, step: int) -> None:
        worker: WorkerNode = self.node
        config = self.wiring.config
        span, timer = self._phase("gather", step)
        with span, timer:
            models = self.endpoint.wait_quorum(
                MessageKind.MODEL_TO_WORKER, step,
                quorum=config.model_quorum, timeout=self.quorum_timeout)
        span, timer = self._phase("compute", step)
        with span, timer:
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
        span, timer = self._phase("broadcast", step)
        with span, timer:
            for worker_id in self.wiring.worker_ids:
                payload = server.outgoing_model(step, recipient=worker_id)
                self.endpoint.send(worker_id, MessageKind.MODEL_TO_WORKER,
                                   step, payload)
        # Phase 2: gather gradients and update (Byzantine servers skip the
        # honest computation — whatever they hold is corrupted on send).
        span, timer = self._phase("gather", step)
        with span, timer:
            gradients = self.endpoint.wait_quorum(
                MessageKind.GRADIENT_TO_SERVER, step,
                quorum=config.gradient_quorum, timeout=self.quorum_timeout)
        span, timer = self._phase("aggregate", step)
        with span, timer:
            server.apply_gradients(gradients, step)
        # Phase 3: exchange models between servers and take the median.
        span, timer = self._phase("apply", step)
        with span, timer:
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
