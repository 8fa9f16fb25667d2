"""The node process of the cluster runtime, and the template's entry point.

``python -m repro.runtime.cluster.node`` is the **template process**
(:mod:`repro.runtime.cluster.template`): it loads this module's whole
import graph once and forks one child per node.  Each child runs
:func:`run_node` on the configuration its supervisor sent — a single
GuanYu node, one parameter server or one worker, as a real OS process.
The protocol loop and the mailbox are the threaded runtime's
(:class:`repro.runtime.live.LiveNode` over an
:class:`~repro.runtime.live.Endpoint`); only the wire and the four hooks
differ: frames over sockets instead of in-process hand-over, reports
buffered and shipped to the supervising process on the node's last control
frame (``done``, or ``crashed``), and a scheduled crash that really kills
the process.  While the run steps, only protocol frames leave the node.

Every node derives the scenario's :class:`~repro.core.wiring.ClusterWiring`
from the spec it receives — the same derivation every other runtime uses,
which is what makes the cross-runtime loss-trajectory equivalence hold —
and builds only its own node from it.

Exit codes (collected by the supervisor):

====  ======================================================
0     clean shutdown
11    could not bind the assigned listener address
12    invalid configuration
13    debug hook ``die_before_ready`` (tests only)
14    unrecoverable run error (details travel in an ERROR frame)
====  ======================================================
"""

from __future__ import annotations

import socket
import sys
import threading
import time
import traceback
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.wiring import ClusterWiring
from repro.runtime.live import LiveNode

EXIT_OK = 0
EXIT_BIND_FAILED = 11
EXIT_CONFIG_INVALID = 12
EXIT_DEBUG_DIED = 13
EXIT_RUN_FAILED = 14


class _ControlChannel:
    """Persistent frame connection to the supervisor (thread-safe writes)."""

    def __init__(self, sock: socket.socket, node_id: str) -> None:
        from repro.runtime.cluster.protocol import send_frame

        self._sock = sock
        self._node_id = node_id
        self._send_frame = send_frame
        self._lock = threading.Lock()

    def send(self, kind: str, step: int = -1, payload=None,
             **meta) -> None:
        from repro.runtime.cluster.protocol import Frame

        frame = Frame(kind=kind, sender=self._node_id,
                      recipient="supervisor", step=step, payload=payload,
                      meta=meta)
        with self._lock:
            self._send_frame(self._sock, frame)


class ClusterNodeProcess(LiveNode):
    """One worker or parameter server as an OS process: the node built
    from the scenario wiring, the control channel, the readiness handshake
    and the resume-after-respawn rules."""

    span_prefix = "clu"
    runtime_label = "cluster"

    def __init__(self, config: Dict) -> None:
        from repro.campaign.spec import ScenarioSpec

        self.role: str = config["role"]
        self.index: int = int(config["index"])
        self.num_steps: int = int(config["num_steps"])
        self.resume_step: int = int(config.get("resume_step", 0))
        self.snapshot = config.get("snapshot")
        self.trace_enabled: bool = bool(config.get("trace", False))
        self.metrics_enabled: bool = bool(config.get("metrics", False))
        self.send_snapshots: bool = bool(config.get("send_snapshots", False))
        self.debug: Dict = config.get("debug") or {}
        self.address = config["address"]
        self.control_address = config["control"]
        self.spec = ScenarioSpec.from_dict(config["spec"])
        self.control: Optional[_ControlChannel] = None
        self._started = threading.Event()
        self._shutdown = threading.Event()
        self._addresses: Dict[str, Dict] = {}
        self._start_time = 0.0
        #: ``(step, value)`` reports, shipped on the last control frame
        self._losses: List[Tuple[int, float]] = []
        self._step_times: List[Tuple[int, float]] = []

        wiring, _test, model_fn = ClusterWiring.from_spec(self.spec)
        build = wiring.worker if self.role == "worker" else wiring.server
        # The endpoint is the socket transport ``start`` binds.
        super().__init__(
            wiring, build(self.index, model_fn()), None,
            quorum_timeout=self.spec.quorum_timeout,
            straggle=(wiring.straggler_excess(self.index)
                      if self.role == "worker" else 0.0))
        if self.node_id != config["node_id"]:
            raise ValueError(f"node id '{config['node_id']}' is not "
                             f"{self.role} {self.index} ('{self.node_id}')")
        # Observation board: only the Byzantine worker processes read
        # plans, so only they pay for one.  Honest workers *feed* the
        # boards with OBSERVE frames instead (``publish_observation``).
        self._board = None
        if wiring.needs_observation_board \
                and self.node_id in wiring.attacking_workers:
            wiring.coordinator.enable_board(wiring.expected_publishers,
                                            timeout=self.quorum_timeout)
            self._board = wiring.coordinator

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Bind the listener, handshake with the supervisor, await START."""
        import os

        from repro.runtime.cluster.protocol import recv_frame
        from repro.runtime.cluster.transport import (
            SocketTransport,
            bind_listener,
            connect,
        )

        try:
            listener = bind_listener(self.address)
        except OSError as exc:
            print(f"{self.node_id}: cannot bind {self.address}: {exc}",
                  file=sys.stderr, flush=True)
            sys.exit(EXIT_BIND_FAILED)

        self.endpoint = SocketTransport(
            self.node_id, listener, self.wiring.worker_ids,
            self.wiring.server_ids, jitter=self.spec.jitter,
            seed=self.spec.seed + 4000 + self.index,
            fault_controller=self.wiring.faults,
            send_deadline=self.spec.quorum_timeout,
            on_observe=self._board.publish if self._board is not None else None)

        control_sock = connect(self.control_address, timeout=30.0)
        self.control = _ControlChannel(control_sock, self.node_id)
        reader = threading.Thread(target=self._control_loop,
                                  args=(control_sock, recv_frame),
                                  daemon=True, name="control")
        reader.start()
        self.control.send("ready", address=self.address, pid=os.getpid(),
                          role=self.role)
        if self.debug.get("hang_after_ready"):
            while True:  # probe-timeout escalation test: go silent
                time.sleep(3600)
        if not self._started.wait(timeout=120.0):
            raise RuntimeError(f"{self.node_id} never received START")
        self.endpoint.set_addresses(self._addresses)
        self._start_time = time.perf_counter()

    def _control_loop(self, sock: socket.socket, recv_frame) -> None:
        while True:
            try:
                frame = recv_frame(sock)
            except OSError:
                return
            if frame is None:
                return
            if frame.kind == "start":
                self._addresses = frame.meta["addresses"]
                self._started.set()
            elif frame.kind == "ping":
                if not self.debug.get("hang_after_ready"):
                    self.control.send("pong")
            elif frame.kind == "shutdown":
                self._shutdown.set()

    # ------------------------------------------------------------------ #
    # LiveNode hooks
    # ------------------------------------------------------------------ #
    def publish_observation(self, step: int, gradient: np.ndarray) -> None:
        # Copy the honest gradient to every Byzantine worker's observation
        # board (each controlled process rebuilds the identical round plan
        # from the same observations).
        for target in self.wiring.attacking_workers:
            self.endpoint.send_observation(target, step, gradient)

    def report_loss(self, step: int, loss: float) -> None:
        self._losses.append((step, float(loss)))

    def report_step(self, step: int) -> None:
        self._step_times.append(
            (step, time.perf_counter() - self._start_time))

    def _reports(self) -> Dict:
        """What this incarnation reported, as the meta of its last frame."""
        return {"losses": self._losses, "step_times": self._step_times}

    def on_scheduled_crash(self, step: int) -> None:
        """Report the scheduled crash, then wait for the supervisor's
        SIGKILL — the process really dies; a later recover event makes the
        supervisor respawn a fresh incarnation from this step's state.

        The report carries the incarnation's losses and step times, and —
        where the schedule recovers anyone — a server's parameters: the
        snapshot a respawned incarnation resumes from.  They have not
        changed since the last step this server finished.

        The data plane — listener *and* accepted connections — closes
        *before* the report: between the report and the SIGKILL this
        process is protocol-dead but its sockets would otherwise keep
        taking frames, and a fast peer's post-crash-step frame buffered
        here dies with the process instead of failing on the peer's kept
        connection and being retried into the respawned incarnation's
        re-bound listener."""
        self.endpoint.close()
        self.control.send("crashed", step=step,
                          payload=(self.node.current_parameters()
                                   if self.send_snapshots else None),
                          **self._reports())
        while True:
            time.sleep(3600)

    # ------------------------------------------------------------------ #
    def run(self) -> None:
        from contextlib import ExitStack

        from repro.obs.telemetry import MetricsRegistry, use_registry
        from repro.obs.tracer import Tracer, use_tracer

        self._fast_forward()
        tracer = Tracer(capacity=20_000) if self.trace_enabled else None
        registry = MetricsRegistry() if self.metrics_enabled else None
        with ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(use_tracer(tracer))
            if registry is not None:
                stack.enter_context(use_registry(registry))
            self.run_steps(self.resume_step, self.num_steps)
        if tracer is not None:
            self.control.send(
                "trace",
                events=[event.to_dict() for event in tracer.events()],
                counters=tracer.counters(), summary=tracer.summary())
        if registry is not None:
            # The node-local registry travels to the supervisor, which
            # merges it into the ambient one tagged with this node's id.
            self.control.send("metrics", snapshot=registry.snapshot())
        self._finish()
        self._shutdown.wait(timeout=30.0)
        self.endpoint.close()

    def _fast_forward(self) -> None:
        """Put a respawned incarnation where its dead one stopped."""
        if self.role == "server":
            # A respawned server resumes from its own last snapshot — the
            # stale parameters its dead incarnation last held, exactly like
            # a recovering replica in the other runtimes; the phase-3 median
            # re-contracts it toward the live majority.
            if self.snapshot is not None:
                self.node.parameters = np.asarray(self.snapshot,
                                                  dtype=np.float64)
            return
        # A respawned worker replays its data stream: the dead incarnation
        # consumed one batch per local step for every step it participated
        # in, and the loader's shuffling is a pure function of its seed, so
        # skipping the same number of index rows restores the exact stream
        # position.  (Workers carry no other per-step state — parameters
        # arrive fresh from the servers each round.)
        for step in range(self.resume_step):
            if self.node_id in self.wiring.participants(step)[0]:
                for _ in range(self.node.local_steps):
                    self.node.loader.next_indices()

    def _finish(self) -> None:
        self.control.send("done", connects=dict(self.endpoint.connects),
                          payload=(self.node.current_parameters()
                                   if self.role == "server" else None),
                          **self._reports())


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #
def run_node(config: Dict) -> int:
    if config.get("debug", {}).get("die_before_ready"):
        return EXIT_DEBUG_DIED
    try:
        node = ClusterNodeProcess(config)
    except (KeyError, TypeError, ValueError) as exc:
        print(f"invalid node config: {exc}", file=sys.stderr, flush=True)
        traceback.print_exc()
        return EXIT_CONFIG_INVALID
    try:
        node.start()
        node.run()
        return EXIT_OK
    except SystemExit:
        raise
    except BaseException as exc:  # noqa: BLE001 - reported to the supervisor
        try:
            if node.control is not None:
                node.control.send("error",
                                  error=f"{type(exc).__name__}: {exc}",
                                  traceback=traceback.format_exc())
        except OSError:
            pass
        print(f"{config.get('node_id', '?')} failed: {exc}",
              file=sys.stderr, flush=True)
        traceback.print_exc()
        return EXIT_RUN_FAILED


if __name__ == "__main__":
    # What a node would import lazily on its way to READY is loaded here,
    # once, so that the forked nodes import nothing.
    import repro.experiments.common  # noqa: F401
    from repro.runtime.cluster.template import serve

    sys.exit(serve(run_node))
