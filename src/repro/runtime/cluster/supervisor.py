"""Supervising daemon of the process cluster runtime.

The :class:`Supervisor` owns the whole lifecycle of one cluster run: it
assigns every node a stable listener address (Unix-domain socket by
default, TCP with supervisor-probed free ports otherwise), has this
process's warm template (:mod:`repro.runtime.cluster.template`) fork one
OS process per parameter server and worker, completes a READY/START
handshake that
distributes the address map, probes health with PING/PONG frames over each
node's persistent control connection, and collects exit codes on the way
out.

Fault semantics are *physical* where the other runtimes merely bookkeep:
a fault-schedule crash event makes the node report CRASHED and park, and
the supervisor SIGKILLs the real process — the PID is observably dead.  A
matching recover event makes the supervisor respawn a fresh incarnation on
the same address: workers fast-forward their deterministic data stream,
servers restart from the parameter snapshot the dead incarnation's crash
report carried (stale state, exactly like the other runtimes' recovering
replicas).  Partitions are enforced at the socket layer by both endpoints'
transports.  While the run steps, the supervisor handles only PING/PONG:
each node incarnation's report (:meth:`repro.runtime.live.LiveNode.report`,
plus its trace and registry snapshot when those are on) rides its last
frame, DONE or CRASHED, and is checked on arrival
(:func:`~repro.runtime.cluster.protocol.decode_report`).

The supervisor keeps those reports and nothing else of the nodes' results:
the returned :class:`~repro.obs.history.TrainingHistory` is folded from
them by the function the threaded runtime folds its own with
(:func:`repro.runtime.live.live_history`) — per-step mean worker loss in
canonical worker order, server wall-clock watermarks, final honest-server
spread — which is what the tier-1 cluster↔threaded loss-trajectory
equivalence test checks.
"""

from __future__ import annotations

import os
import queue
import shutil
import signal
import socket
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.campaign.spec import ScenarioSpec
from repro.core.wiring import ClusterWiring
from repro.obs.history import TrainingHistory
from repro.obs.telemetry import get_registry
from repro.obs.tracer import TraceEvent, get_tracer
from repro.runtime.cluster.protocol import (
    Frame,
    FrameError,
    decode_report,
    recv_frame,
    send_frame,
)
from repro.runtime.cluster.template import TEMPLATE, NodeProcess, TemplateError
from repro.runtime.cluster.transport import (
    Address,
    bind_listener,
    unix_sockets_available,
)
from repro.runtime.facade import check_runtime
from repro.runtime.live import live_history

__all__ = [
    "ClusterOptions",
    "NodeHandle",
    "Supervisor",
    "SupervisorError",
    "cluster_available",
]

#: handle states that take no further lifecycle transitions
_TERMINAL_STATES = frozenset({"done", "probe-timeout", "failed"})


class SupervisorError(RuntimeError):
    """The cluster could not complete the run (details in the message)."""


@dataclass
class ClusterOptions:
    """Operational knobs of a cluster run (not part of the scenario spec,
    hence never hashed: two runs differing only in these are the same
    experiment)."""

    #: ``auto`` (unix when available, else tcp) | ``unix`` | ``tcp``
    transport: str = "auto"
    #: seconds between PING probes on each control connection
    probe_interval: float = 1.0
    #: seconds without a PONG before the node is declared hung and killed
    probe_timeout: float = 15.0
    #: seconds every node gets to bind its listener and report READY
    ready_timeout: float = 60.0
    #: seconds nodes get to exit after SHUTDOWN before being killed
    shutdown_timeout: float = 15.0
    #: per-node debug hooks (``{"worker/0": {"die_before_ready": True}}``) —
    #: test seams for the supervisor edge paths, never set in real runs
    debug_hooks: Dict[str, Dict] = field(default_factory=dict)
    #: per-node listener address overrides (test seam: bind conflicts)
    addresses: Dict[str, Address] = field(default_factory=dict)


@dataclass
class Incarnation:
    """One spawned OS process of a node (respawns append new entries)."""

    process: NodeProcess
    pid: int
    resume_step: int = 0
    exit_code: Optional[int] = None


@dataclass
class NodeHandle:
    """Supervisor-side bookkeeping for one logical node."""

    node_id: str
    role: str
    index: int
    address: Address
    state: str = "spawned"
    incarnations: List[Incarnation] = field(default_factory=list)
    conn: Optional[socket.socket] = None
    conn_lock: threading.Lock = field(default_factory=threading.Lock)
    last_pong: float = 0.0
    last_ping: float = 0.0
    crashed_steps: List[int] = field(default_factory=list)
    #: peer → data-plane connections the finished incarnation opened to it
    connects: Dict[str, int] = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def current(self) -> Optional[Incarnation]:
        return self.incarnations[-1] if self.incarnations else None

    def send(self, frame: Frame) -> None:
        """Write a control frame to the node (thread-safe, best-effort)."""
        with self.conn_lock:
            if self.conn is None:
                return
            try:
                send_frame(self.conn, frame)
            except OSError:
                pass  # a dying node's health is judged by poll(), not sends


class Supervisor:
    """Spawn, wire, watch and reap one scenario's worth of node processes."""

    def __init__(self, spec: ScenarioSpec, num_steps: Optional[int] = None,
                 options: Optional[ClusterOptions] = None) -> None:
        spec.validate()
        check_runtime(spec, "cluster")
        self.spec = spec
        self.num_steps = num_steps if num_steps is not None else spec.num_steps
        if self.num_steps <= 0:
            raise ValueError("num_steps must be positive")
        self.options = options or ClusterOptions()
        self.config = spec.cluster_config()

        # The same wiring every node process derives from the spec: the
        # supervisor reads the fault controller, the model size a server
        # report must match, and the honest server set for the final-spread
        # metric and to refuse respawning a Byzantine node (its attack rng
        # state died with the process).
        wiring, _test, model_fn = ClusterWiring.from_spec(spec)
        self.faults = wiring.faults
        self._dimension = model_fn().num_parameters()
        self.attacking_workers = wiring.attacking_workers
        self.attacking_servers = wiring.attacking_servers

        if self.options.transport == "auto":
            self._family = "unix" if unix_sockets_available() else "tcp"
        elif self.options.transport in ("unix", "tcp"):
            self._family = self.options.transport
        else:
            raise ValueError(f"unknown transport '{self.options.transport}'")

        self._dir = tempfile.mkdtemp(prefix="repro-cluster-")
        self.handles: Dict[str, NodeHandle] = {}
        for index, node_id in enumerate(self.config.server_ids()):
            self._add_handle(node_id, "server", index)
        for index, node_id in enumerate(self.config.worker_ids()):
            self._add_handle(node_id, "worker", index)
        self.control_address = self._assign_address("control")

        self._events: "queue.Queue" = queue.Queue()
        self._stop = threading.Event()
        self._started = False
        self._listener: Optional[socket.socket] = None
        #: node id → the checked report of each incarnation that sent one,
        #: in order (:func:`~repro.runtime.cluster.protocol.decode_report`)
        self.reports: Dict[str, List[Dict]] = {}

    # ------------------------------------------------------------------ #
    # Addressing and spawning
    # ------------------------------------------------------------------ #
    def _safe_name(self, node_id: str) -> str:
        return node_id.replace("/", "-")

    def _assign_address(self, name: str) -> Address:
        if self._family == "unix":
            return {"family": "unix",
                    "path": os.path.join(self._dir, f"{name}.sock")}
        # A probe's port is free again once it closes, so a later probe can
        # be handed the same one (1 run in 400 with eight addresses).
        taken = {handle.address.get("port") for handle in self.handles.values()}
        port = None
        while port is None or port in taken:
            with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
                probe.bind(("127.0.0.1", 0))
                port = probe.getsockname()[1]
        return {"family": "tcp", "host": "127.0.0.1", "port": port}

    def _add_handle(self, node_id: str, role: str, index: int) -> None:
        address = self.options.addresses.get(
            node_id, self._assign_address(self._safe_name(node_id)))
        self.handles[node_id] = NodeHandle(node_id=node_id, role=role,
                                           index=index, address=address)

    def _node_config(self, handle: NodeHandle, resume_step: int) -> Dict:
        snapshot = None
        if handle.role == "server" and resume_step > 0:
            # the parameters the dead incarnation's ``crashed`` frame carried
            snapshot = self.reports[handle.node_id][-1]["parameters"].tolist()
        return {
            "node_id": handle.node_id,
            "role": handle.role,
            "index": handle.index,
            "spec": self.spec.to_dict(),
            "num_steps": self.num_steps,
            "address": handle.address,
            "control": self.control_address,
            "resume_step": resume_step,
            "snapshot": snapshot,
            "trace": bool(get_tracer().enabled),
            "metrics": bool(get_registry().enabled),
            "debug": self.options.debug_hooks.get(handle.node_id, {}),
        }

    def _spawn(self, handle: NodeHandle, resume_step: int = 0) -> None:
        log_path = os.path.join(self._dir,
                                f"{self._safe_name(handle.node_id)}.log")
        process = TEMPLATE.spawn(self._node_config(handle, resume_step),
                                 log_path, dict(os.environ))
        handle.incarnations.append(
            Incarnation(process=process, pid=process.pid,
                        resume_step=resume_step))
        handle.state = "spawned"
        with handle.conn_lock:
            handle.conn = None
        self._set_node_gauges(handle)

    def _kill_current(self, handle: NodeHandle) -> Optional[int]:
        """SIGKILL the node's live process and reap its exit code."""
        incarnation = handle.current
        if incarnation is None:
            return None
        incarnation.process.kill()
        try:
            incarnation.exit_code = incarnation.process.wait(timeout=10.0)
        except TemplateError:
            # Its parent died, so init reaps it and nobody reports the
            # status: the signal just sent is all there is to know.
            incarnation.exit_code = -signal.SIGKILL
        with handle.conn_lock:
            if handle.conn is not None:
                try:
                    handle.conn.close()
                except OSError:
                    pass
                handle.conn = None
        if handle.address["family"] == "unix":
            # Free the stable address for the next incarnation: a dead
            # process leaves its socket file behind and a rebind would
            # fail with EADDRINUSE.
            try:
                os.unlink(str(handle.address["path"]))
            except OSError:
                pass
        return incarnation.exit_code

    # ------------------------------------------------------------------ #
    # Control plane threads
    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed — shutdown
            thread = threading.Thread(target=self._reader, args=(conn,),
                                      daemon=True, name="cluster-reader")
            thread.start()

    def _reader(self, conn: socket.socket) -> None:
        node_id = None
        try:
            while True:
                frame = recv_frame(conn)
                if frame is None:
                    break
                if frame.kind == "ready":
                    node_id = frame.sender
                    self._events.put(("ready", node_id, frame, conn))
                else:
                    self._events.put(("frame", frame.sender, frame, None))
        except (FrameError, OSError):
            pass
        if node_id is not None:
            self._events.put(("eof", node_id, None, None))

    def _monitor_loop(self) -> None:
        """Poll processes for unexpected exits and probe node health."""
        interval = self.options.probe_interval
        while not self._stop.is_set():
            now = time.monotonic()
            for handle in self.handles.values():
                if handle.state in _TERMINAL_STATES or handle.state == "killed":
                    continue
                incarnation = handle.current
                if incarnation is not None and incarnation.exit_code is None:
                    try:
                        code = incarnation.process.poll()
                    except TemplateError as exc:
                        self._events.put(("template", handle.node_id,
                                          str(exc), None))
                        return
                    if code is not None:
                        incarnation.exit_code = code
                        self._events.put(("exit", handle.node_id, code, None))
                        continue
                if handle.conn is None:
                    continue
                if now - handle.last_pong > self.options.probe_timeout:
                    self._events.put(("hung", handle.node_id, None, None))
                elif now - handle.last_ping >= interval:
                    handle.last_ping = now
                    handle.send(Frame(kind="ping", sender="supervisor",
                                      recipient=handle.node_id))
            self._stop.wait(min(interval / 4, 0.2))

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #
    def _set_node_gauges(self, handle: NodeHandle) -> None:
        """Refresh the node's liveness/incarnation gauges (no-op registry
        when telemetry is off)."""
        registry = get_registry()
        if not registry.enabled:
            return
        up = 1.0 if handle.state in ("ready", "running", "done") else 0.0
        registry.set_gauge("repro_cluster_node_up", up, node=handle.node_id)
        registry.set_gauge("repro_cluster_node_incarnations",
                           len(handle.incarnations), node=handle.node_id)

    # ------------------------------------------------------------------ #
    # Fault bookkeeping
    # ------------------------------------------------------------------ #
    def _expects_done(self, handle: NodeHandle) -> bool:
        """Whether the node's loop reaches the final step (a node inside a
        crash window at the last step parks and is killed instead)."""
        if self.faults is None:
            return True
        return self.faults.node_alive(handle.node_id, self.num_steps - 1)

    def _resume_step_after(self, node_id: str, crashed_step: int
                           ) -> Optional[int]:
        """First step at/after the crash where the node is alive again."""
        if self.faults is None:
            return None
        for step in range(crashed_step, self.num_steps):
            if self.faults.node_alive(node_id, step):
                return step
        return None

    def _handle_crash(self, handle: NodeHandle, step: int) -> None:
        """A node reported its scheduled crash: kill it for real, then
        respawn a fresh incarnation iff the schedule recovers it."""
        handle.crashed_steps.append(step)
        handle.state = "killed"
        self._kill_current(handle)
        self._set_node_gauges(handle)
        resume = self._resume_step_after(handle.node_id, step)
        if resume is None:
            return  # crashed forever; quorums carry the run
        if handle.node_id in self.attacking_workers \
                or handle.node_id in self.attacking_servers:
            raise SupervisorError(
                f"cannot respawn Byzantine node {handle.node_id}: its attack "
                f"rng state died with the process (schedule honest crashes, "
                f"or drop the recover event)")
        registry = get_registry()
        if registry.enabled:
            registry.inc("repro_cluster_respawns_total", node=handle.node_id)
        self._spawn(handle, resume_step=resume)

    # ------------------------------------------------------------------ #
    # Event loop
    # ------------------------------------------------------------------ #
    def _fail(self, message: str, handle: Optional[NodeHandle] = None) -> None:
        if handle is not None:
            handle.state = "failed"
            self._set_node_gauges(handle)
            if handle.error is None:
                handle.error = message
            tail = self._log_tail(handle)
            if tail:
                message = f"{message}\n--- {handle.node_id} log tail ---\n{tail}"
        raise SupervisorError(message)

    def _log_tail(self, handle: NodeHandle, lines: int = 15) -> str:
        path = os.path.join(self._dir,
                            f"{self._safe_name(handle.node_id)}.log")
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as log:
                return "\n".join(log.read().splitlines()[-lines:])
        except OSError:
            return ""

    def _broadcast_start(self) -> None:
        addresses = {node_id: handle.address
                     for node_id, handle in self.handles.items()}
        for handle in self.handles.values():
            if handle.state == "ready":
                handle.send(Frame(kind="start", sender="supervisor",
                                  recipient=handle.node_id,
                                  meta={"addresses": addresses}))
                handle.state = "running"
        self._started = True

    def _on_ready(self, handle: NodeHandle, frame: Frame,
                  conn: socket.socket) -> None:
        with handle.conn_lock:
            handle.conn = conn
        now = time.monotonic()
        handle.last_pong = now
        handle.last_ping = now
        handle.state = "ready"
        self._set_node_gauges(handle)
        if self._started:
            # A respawned incarnation: everyone else is already running,
            # so it gets the address map immediately.
            addresses = {node_id: peer.address
                         for node_id, peer in self.handles.items()}
            handle.send(Frame(kind="start", sender="supervisor",
                              recipient=handle.node_id,
                              meta={"addresses": addresses}))
            handle.state = "running"
        elif all(peer.state == "ready" for peer in self.handles.values()):
            self._broadcast_start()

    def _on_frame(self, handle: NodeHandle, frame: Frame) -> None:
        kind = frame.kind
        if kind == "pong":
            now = time.monotonic()
            handle.last_pong = now
            registry = get_registry()
            if registry.enabled:
                # ``last_ping`` is stamped when the probe leaves, so this
                # is the PING→PONG round trip through the node's control
                # thread (plus our event-queue latency).
                registry.observe("repro_cluster_probe_rtt_seconds",
                                 max(now - handle.last_ping, 0.0),
                                 node=handle.node_id)
        elif kind == "crashed":
            # Filed before any respawn: a respawned server resumes from
            # the parameters this report carries.
            self._file_report(handle, frame)
            self._handle_crash(handle, frame.step)
        elif kind == "done":
            self._file_report(handle, frame)
            handle.connects = frame.meta.get("connects") or {}
            registry = get_registry()
            if registry.enabled:
                registry.inc("repro_cluster_connects_total",
                             sum(handle.connects.values()),
                             node=handle.node_id)
            handle.state = "done"
            self._set_node_gauges(handle)
        elif kind == "error":
            handle.error = frame.meta.get("error", "unknown node error")
            self._fail(f"node {handle.node_id} failed: {handle.error}\n"
                       f"{frame.meta.get('traceback', '')}", handle)

    def _file_report(self, handle: NodeHandle, frame: Frame) -> None:
        """Check and keep the report an incarnation's last frame carries,
        and fold its registry snapshot into the ambient registry with the
        node id stamped on every series, so per-node byte counts and phase
        histograms stay apart."""
        try:
            report = decode_report(
                frame, self.num_steps,
                self._dimension if handle.role == "server" else None)
        except FrameError as exc:
            self._fail(f"node {handle.node_id} sent a malformed "
                       f"'{frame.kind}' report: {exc}", handle)
        self.reports.setdefault(handle.node_id, []).append(report)
        registry = get_registry()
        if registry.enabled and report["metrics"]:
            registry.merge(report["metrics"],
                           extra_labels={"node": handle.node_id})

    def _on_exit(self, handle: NodeHandle, code: int) -> None:
        """An incarnation exited on its own — never expected before the
        shutdown phase (crash kills are reaped in :meth:`_handle_crash`)."""
        if handle.state in ("done", "killed"):
            return
        from repro.runtime.cluster import node as node_module

        reasons = {
            node_module.EXIT_BIND_FAILED: "could not bind its address",
            node_module.EXIT_CONFIG_INVALID: "rejected its configuration",
            node_module.EXIT_DEBUG_DIED: "died before the readiness "
                                         "handshake (debug hook)",
            node_module.EXIT_RUN_FAILED: "hit an unrecoverable run error",
        }
        reason = reasons.get(code, "exited unexpectedly")
        self._fail(f"node {handle.node_id} {reason} (exit code {code})",
                   handle)

    def _on_hung(self, handle: NodeHandle) -> None:
        if handle.state not in ("ready", "running"):
            return
        handle.state = "probe-timeout"
        self._set_node_gauges(handle)
        code = self._kill_current(handle)
        raise SupervisorError(
            f"node {handle.node_id} missed health probes for "
            f"{self.options.probe_timeout:.1f}s and was killed "
            f"(exit code {code})")

    def _event_loop(self) -> None:
        ready_deadline = time.monotonic() + self.options.ready_timeout
        run_deadline = time.monotonic() + \
            self.spec.quorum_timeout * (self.num_steps + 1)
        while True:
            pending = [handle for handle in self.handles.values()
                       if handle.state != "done"
                       and (self._expects_done(handle)
                            or handle.state != "killed")]
            if not pending:
                return
            now = time.monotonic()
            if not self._started and now > ready_deadline:
                stragglers = sorted(h.node_id for h in self.handles.values()
                                    if h.state == "spawned")
                self._fail(f"nodes {stragglers} never reported READY within "
                           f"{self.options.ready_timeout:.1f}s",
                           self.handles[stragglers[0]] if stragglers else None)
            if now > run_deadline:
                stuck = sorted(handle.node_id for handle in pending)
                self._fail(f"cluster run deadline exceeded; nodes {stuck} "
                           f"never finished")
            try:
                kind, node_id, payload, conn = self._events.get(timeout=0.25)
            except queue.Empty:
                continue
            handle = self.handles.get(node_id)
            if handle is None:
                continue
            if kind == "ready":
                self._on_ready(handle, payload, conn)
            elif kind == "frame":
                self._on_frame(handle, payload)
            elif kind == "exit":
                self._on_exit(handle, payload)
            elif kind == "hung":
                self._on_hung(handle)
            elif kind == "template":
                raise SupervisorError(payload)
            # "eof" alone carries no verdict: a finished or killed node
            # closing its connection is normal, and a dying one is caught
            # by the monitor's poll() with its exit code.

    # ------------------------------------------------------------------ #
    # Run orchestration
    # ------------------------------------------------------------------ #
    def run(self) -> TrainingHistory:
        """Execute the scenario across real processes; returns the history."""
        try:
            try:
                self._listener = bind_listener(self.control_address)
            except OSError as exc:
                raise SupervisorError(
                    f"cannot bind supervisor control address "
                    f"{self.control_address}: {exc}") from exc
            threading.Thread(target=self._accept_loop, daemon=True,
                             name="cluster-accept").start()
            threading.Thread(target=self._monitor_loop, daemon=True,
                             name="cluster-monitor").start()
            for handle in self.handles.values():
                self._spawn(handle)
            self._event_loop()
        except TemplateError as exc:
            raise SupervisorError(str(exc)) from exc
        finally:
            self._teardown()
        self._merge_traces()
        return self._assemble_history()

    def _teardown(self) -> None:
        self._stop.set()
        for handle in self.handles.values():
            if handle.state == "done":
                handle.send(Frame(kind="shutdown", sender="supervisor",
                                  recipient=handle.node_id))
        deadline = time.monotonic() + self.options.shutdown_timeout
        for handle in self.handles.values():
            incarnation = handle.current
            if incarnation is None or incarnation.exit_code is not None:
                continue
            remaining = max(deadline - time.monotonic(), 0.1)
            try:
                incarnation.exit_code = \
                    incarnation.process.wait(timeout=remaining)
            except TemplateError:
                pass  # nobody left to wait through: kill by PID below
            if incarnation.exit_code is None:
                self._kill_current(handle)
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        for handle in self.handles.values():
            with handle.conn_lock:
                if handle.conn is not None:
                    try:
                        handle.conn.close()
                    except OSError:
                        pass
                    handle.conn = None
        shutil.rmtree(self._dir, ignore_errors=True)

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def _merge_traces(self) -> None:
        """Fold the traces the nodes' reports carried into the ambient
        tracer as one multi-source stream (each record tagged with its
        origin process, and one ``cluster.node`` summary per incarnation)."""
        tracer = get_tracer()
        if not tracer.enabled:
            return
        for node_id, reports in sorted(self.reports.items()):
            for trace in filter(None, (report["trace"] for report in reports)):
                events = [TraceEvent.from_dict({**record, "source": node_id})
                          for record in trace.get("events", [])]
                tracer.extend(events + [TraceEvent(
                    name="cluster.node", kind="event", source=node_id,
                    node=node_id,
                    attrs={"trace_summary": trace.get("summary")})])
                for name, value in (trace.get("counters") or {}).items():
                    tracer.count(name, value)

    def _assemble_history(self) -> TrainingHistory:
        from repro.experiments.common import make_schedule

        spec = self.spec
        return live_history(
            "guanyu-cluster", self.config, adversary=spec.adversary,
            faults=spec.faults, hetero=spec.hetero,
            schedule=make_schedule(spec), num_steps=self.num_steps,
            reports=self.reports, attacking_servers=self.attacking_servers)

    def report(self) -> Dict:
        """Structured lifecycle record (the observability/test surface)."""
        nodes = {}
        for node_id, handle in self.handles.items():
            nodes[node_id] = {
                "role": handle.role,
                "state": handle.state,
                "address": dict(handle.address),
                "pids": [inc.pid for inc in handle.incarnations],
                "exit_codes": [inc.exit_code for inc in handle.incarnations],
                "respawns": max(len(handle.incarnations) - 1, 0),
                "connects": sum(handle.connects.values()),
                "reconnects": {peer: count - 1 for peer, count
                               in handle.connects.items() if count > 1},
                "crashed_steps": list(handle.crashed_steps),
                "error": handle.error,
            }
        return {"transport": self._family, "num_steps": self.num_steps,
                "nodes": nodes}


def cluster_available() -> bool:
    """Whether this host can run the socket cluster (bind + connect work).

    Sandboxes occasionally forbid socket binding altogether;
    :func:`repro.runtime.resolve_runtime` resolves a ``"cluster"`` spec to
    ``"threaded"`` when this returns ``False`` — as it does where
    ``os.fork`` is missing, since nodes are forked from the template
    process.
    """
    if not hasattr(os, "fork"):
        return False
    if unix_sockets_available():
        directory = tempfile.mkdtemp(prefix="repro-cluster-probe-")
        try:
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.bind(os.path.join(directory, "probe.sock"))
                probe.listen(1)
                return True
            finally:
                probe.close()
        except OSError:
            pass
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            probe.bind(("127.0.0.1", 0))
            probe.listen(1)
            return True
        finally:
            probe.close()
    except OSError:
        return False
