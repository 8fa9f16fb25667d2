"""The node process of the cluster runtime, and the template's entry point.

``python -m repro.runtime.cluster.node`` is the **template process**
(:mod:`repro.runtime.cluster.template`): it loads this module's whole
import graph once and forks one child per node.  Each child runs
:func:`run_node` on the configuration its supervisor sent — a single
GuanYu node, one parameter server or one worker, as a real OS process.
The protocol loop, the mailbox and the node's report are the threaded
runtime's (:class:`repro.runtime.live.LiveNode` over an
:class:`~repro.runtime.live.Endpoint`); only the wire and the two hooks
differ: frames over sockets instead of in-process hand-over, and a
scheduled crash that really kills the process.  The report — with the
node's trace and registry snapshot when those are on — travels to the
supervising process as the meta and payload of the node's last control
frame, ``done`` or ``crashed``.  While the run steps, only protocol frames
leave the node.

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
from typing import Dict, Optional

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
        from repro.obs.telemetry import MetricsRegistry, NullRegistry
        from repro.obs.tracer import NullTracer, Tracer

        self.role: str = config["role"]
        self.index: int = int(config["index"])
        self.num_steps: int = int(config["num_steps"])
        self.resume_step: int = int(config.get("resume_step", 0))
        self.snapshot = config.get("snapshot")
        self.debug: Dict = config.get("debug") or {}
        self.address = config["address"]
        self.control_address = config["control"]
        self.spec = ScenarioSpec.from_dict(config["spec"])
        self.control: Optional[_ControlChannel] = None
        self._started = threading.Event()
        self._shutdown = threading.Event()
        self._addresses: Dict[str, Dict] = {}
        #: this incarnation's sinks, when its supervisor traces or meters
        self._tracer = (Tracer(capacity=20_000) if config.get("trace")
                        else NullTracer())
        self._registry = (MetricsRegistry() if config.get("metrics")
                          else NullRegistry())

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
        self.clock_origin = time.perf_counter()

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

    def on_scheduled_crash(self, step: int) -> None:
        """Report the scheduled crash, then wait for the supervisor's
        SIGKILL — the process really dies; a later recover event makes the
        supervisor respawn a fresh incarnation from this step's state.

        The ``crashed`` frame carries the incarnation's report: a server's
        parameters in it are the snapshot a respawned incarnation resumes
        from (they have not changed since the last step this server
        finished) and the final-spread operand of a server that stays down.

        The data plane — listener *and* accepted connections — closes
        *before* the report: between the report and the SIGKILL this
        process is protocol-dead but its sockets would otherwise keep
        taking frames, and a fast peer's post-crash-step frame buffered
        here dies with the process instead of failing on the peer's kept
        connection and being retried into the respawned incarnation's
        re-bound listener."""
        self.endpoint.close()
        self._send_report("crashed", step=step)
        while True:
            time.sleep(3600)

    def _send_report(self, kind: str, step: int = -1, **meta) -> None:
        """Ship :meth:`report` — plus this incarnation's trace and registry
        snapshot when they are on — as the meta and payload of the
        incarnation's last control frame."""
        report = self.report()
        if self._tracer.enabled:
            meta["trace"] = {
                "events": [event.to_dict() for event in self._tracer.events()],
                "counters": self._tracer.counters(),
                "summary": self._tracer.summary()}
        if self._registry.enabled:
            meta["metrics"] = self._registry.snapshot()
        self.control.send(kind, step=step, payload=report.pop("parameters"),
                          **report, **meta)

    # ------------------------------------------------------------------ #
    def run(self) -> None:
        from repro.obs.telemetry import use_registry
        from repro.obs.tracer import use_tracer

        self._fast_forward()
        with use_tracer(self._tracer), use_registry(self._registry):
            self.run_steps(self.resume_step, self.num_steps)
        self._send_report("done", connects=dict(self.endpoint.connects))
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
