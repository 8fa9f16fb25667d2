"""Process cluster runtime: real node processes over real sockets.

The fourth runtime of the repo (after the sequential simulator, the
threaded cluster and the batched multi-replica engine): the parameter
servers and workers of one GuanYu scenario run as **separate OS
processes** speaking the length-prefixed binary protocol of
:mod:`repro.runtime.cluster.protocol` over Unix-domain or TCP sockets,
under a :class:`~repro.runtime.cluster.supervisor.Supervisor` daemon that
owns lifecycle (spawn, readiness handshake, health probes, SIGKILL on
scheduled crashes, respawn on recovery, graceful shutdown, exit-code
collection) and address wiring.  The node processes are forked from one
warm template process per calling process
(:mod:`repro.runtime.cluster.template`), so a scenario starts no
interpreter of its own.

Node processes reuse :mod:`repro.core.nodes` unmodified, so aggregation
rules, Byzantine attacks, stateful adversaries and heterogeneity profiles
behave exactly as in the other runtimes — the tier-1 equivalence tests
pin the cluster↔threaded loss trajectories per seed.  See
``docs/cluster.md`` for the frame layout and lifecycle, and
``docs/runtimes.md`` for the four-runtime comparison.
"""

from repro.runtime.cluster.protocol import (
    CONTROL_KINDS,
    DATA_KINDS,
    Frame,
    FrameError,
    recv_frame,
    send_frame,
)
from repro.runtime.cluster.supervisor import (
    ClusterOptions,
    NodeHandle,
    Supervisor,
    SupervisorError,
    cluster_available,
)
from repro.runtime.cluster.transport import (
    SocketTransport,
    bind_listener,
    connect,
    unix_sockets_available,
)

__all__ = [
    "CONTROL_KINDS",
    "ClusterOptions",
    "DATA_KINDS",
    "Frame",
    "FrameError",
    "NodeHandle",
    "SocketTransport",
    "Supervisor",
    "SupervisorError",
    "bind_listener",
    "cluster_available",
    "connect",
    "recv_frame",
    "send_frame",
    "unix_sockets_available",
]
