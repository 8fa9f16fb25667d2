"""Supervisor lifecycle tests: the edge paths of the process cluster.

The happy path (spawn → ready → run → done) is covered by the tier-1
equivalence suite; this file exercises the supervisor's failure machinery
through the ``ClusterOptions`` test seams — debug hooks that make a node
die before its readiness handshake or hang after it, address overrides
that provoke bind conflicts — and the respawn path of recover events.
``TestTemplate`` covers the warm template process the nodes are forked
from: sharing, restart, failure modes, the orphan rule, the environment.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

import pytest

from repro.campaign.spec import ScenarioSpec
from repro.faults import FaultEvent, FaultSchedule
from repro.kernels.registry import ENV_VAR
from repro.obs.telemetry import MetricsRegistry, use_registry
from repro.runtime.cluster import (
    ClusterOptions,
    Supervisor,
    SupervisorError,
    cluster_available,
    supervisor as supervisor_module,
    template as template_module,
    unix_sockets_available,
)
from repro.runtime.cluster.template import TEMPLATE, Template, TemplateError

needs_sockets = pytest.mark.skipif(
    not cluster_available(), reason="host cannot bind sockets")


def small_spec(**overrides) -> ScenarioSpec:
    base = dict(name="cluster-edge", trainer="guanyu_threaded",
                num_workers=4, num_servers=3,
                declared_byzantine_workers=0, declared_byzantine_servers=0,
                model_quorum=3, gradient_quorum=4,
                gradient_rule="median", model_rule="median",
                num_steps=2, seed=9, quorum_timeout=30.0)
    base.update(overrides)
    return ScenarioSpec(**base)


class TestConstruction:
    def test_rejects_non_threaded_trainers(self):
        with pytest.raises(ValueError, match="guanyu_threaded"):
            Supervisor(small_spec(trainer="guanyu", runtime=None))

    def test_rejects_unknown_transport(self):
        with pytest.raises(ValueError, match="transport"):
            Supervisor(small_spec(),
                       options=ClusterOptions(transport="carrier-pigeon"))

    def test_rejects_nonpositive_steps(self):
        with pytest.raises(ValueError, match="num_steps"):
            Supervisor(small_spec(), num_steps=0)


@needs_sockets
@pytest.mark.timeout(180)
class TestEdgePaths:
    def test_node_dies_before_readiness(self):
        options = ClusterOptions(
            debug_hooks={"worker/2": {"die_before_ready": True}},
            shutdown_timeout=2.0)
        supervisor = Supervisor(small_spec(), options=options)
        with pytest.raises(SupervisorError, match=(
                r"node worker/2 died before the readiness handshake "
                r"\(debug hook\) \(exit code 13\)")):
            supervisor.run()
        node = supervisor.report()["nodes"]["worker/2"]
        assert node["state"] == "failed"
        assert node["exit_codes"] == [13]  # EXIT_DEBUG_DIED

    def test_address_already_bound(self, tmp_path):
        # pre-bind worker/0's listener address so its bind must fail
        if unix_sockets_available():
            path = str(tmp_path / "taken.sock")
            squatter = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            squatter.bind(path)
            address = {"family": "unix", "path": path}
        else:
            squatter = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            squatter.bind(("127.0.0.1", 0))
            address = {"family": "tcp", "host": "127.0.0.1",
                       "port": squatter.getsockname()[1]}
        squatter.listen(1)
        try:
            options = ClusterOptions(addresses={"worker/0": address},
                                     shutdown_timeout=2.0)
            supervisor = Supervisor(small_spec(), options=options)
            with pytest.raises(SupervisorError, match=(
                    r"node worker/0 could not bind its address "
                    r"\(exit code 11\)\n--- worker/0 log tail ---\n"
                    r"worker/0: cannot bind")):
                supervisor.run()
            node = supervisor.report()["nodes"]["worker/0"]
            assert node["state"] == "failed"
            assert node["exit_codes"] == [11]  # EXIT_BIND_FAILED
        finally:
            squatter.close()

    def test_invalid_node_config(self):
        class Mislabelling(Supervisor):
            def _node_config(self, handle, resume_step):
                config = super()._node_config(handle, resume_step)
                if handle.node_id == "ps/1":
                    config["node_id"] = "ps/7"
                return config

        supervisor = Mislabelling(
            small_spec(), options=ClusterOptions(shutdown_timeout=2.0))
        with pytest.raises(SupervisorError, match=(
                r"node ps/1 rejected its configuration \(exit code 12\)"
                r"\n--- ps/1 log tail ---\n(.*\n)*invalid node config: "
                r"node id 'ps/7' is not server 1")):
            supervisor.run()
        assert supervisor.report()["nodes"]["ps/1"]["exit_codes"] == [12]

    def test_probe_timeout_escalates_to_kill(self):
        # worker/1 completes the readiness handshake, then never answers a
        # PING again: the supervisor must declare it hung and SIGKILL it
        options = ClusterOptions(
            debug_hooks={"worker/1": {"hang_after_ready": True}},
            probe_interval=0.2, probe_timeout=2.0, shutdown_timeout=2.0)
        supervisor = Supervisor(small_spec(), options=options)
        with pytest.raises(SupervisorError, match=(
                r"node worker/1 missed health probes for 2.0s and was "
                r"killed \(exit code -9\)")):
            supervisor.run()
        node = supervisor.report()["nodes"]["worker/1"]
        assert node["state"] == "probe-timeout"
        assert node["exit_codes"] == [-9]

    def test_respawn_after_recover(self):
        faults = FaultSchedule(events=[
            FaultEvent(step=1, kind="crash", nodes=["worker/1"]),
            FaultEvent(step=3, kind="recover", nodes=["worker/1"])])
        supervisor = Supervisor(small_spec(num_steps=4, faults=faults))
        history = supervisor.run()
        assert len(history.records) == 4
        node = supervisor.report()["nodes"]["worker/1"]
        assert node["state"] == "done"
        assert node["respawns"] == 1
        assert node["exit_codes"] == [-9, 0]
        assert len(set(node["pids"])) == 2
        # the killed incarnation's PID is really gone
        with pytest.raises(ProcessLookupError):
            os.kill(node["pids"][0], 0)

    def test_byzantine_node_cannot_be_respawned(self):
        # an attacking node's adversary rng state dies with its process;
        # respawning it would silently change the attack — refuse loudly
        # attacking nodes occupy the *last* ids: worker/5 of 6 here
        faults = FaultSchedule(events=[
            FaultEvent(step=1, kind="crash", nodes=["worker/5"]),
            FaultEvent(step=3, kind="recover", nodes=["worker/5"])])
        spec = small_spec(
            num_workers=6, declared_byzantine_workers=1, gradient_quorum=5,
            num_steps=4, faults=faults,
            worker_attack={"name": "sign_flip", "kwargs": {}})
        supervisor = Supervisor(spec,
                                options=ClusterOptions(shutdown_timeout=2.0))
        with pytest.raises(SupervisorError, match="[Bb]yzantine"):
            supervisor.run()

    def test_tcp_transport_runs(self):
        supervisor = Supervisor(small_spec(num_steps=1),
                                options=ClusterOptions(transport="tcp"))
        history = supervisor.run()
        assert len(history.records) == 1
        report = supervisor.report()
        assert report["transport"] == "tcp"
        assert all(node["state"] == "done"
                   for node in report["nodes"].values())
        assert all(node["address"]["family"] == "tcp"
                   for node in report["nodes"].values())


@needs_sockets
@pytest.mark.timeout(180)
class TestDataPlaneConnects:
    @pytest.mark.parametrize("num_steps", [5, 50])
    def test_connects_do_not_grow_with_the_run(self, num_steps):
        # One kept connection per (sender, recipient) pair: a server sends
        # to 4 workers and 3 servers (itself included), a worker to 3
        # servers — 33 connects however long the run is (it was one per
        # frame: 33 a step).  The count repeats exactly.
        registry = MetricsRegistry()
        supervisor = Supervisor(small_spec(num_steps=num_steps))
        with use_registry(registry):
            supervisor.run()
        nodes = supervisor.report()["nodes"]
        assert {node_id: node["connects"]
                for node_id, node in nodes.items()} == {
            "ps/0": 7, "ps/1": 7, "ps/2": 7,
            "worker/0": 3, "worker/1": 3, "worker/2": 3, "worker/3": 3}
        assert sum(node["connects"] for node in nodes.values()) <= 7 * 7
        assert all(node["reconnects"] == {} for node in nodes.values())
        counter = registry.counter("repro_cluster_connects_total")
        for node_id, node in nodes.items():
            assert counter.value(node=node_id) == node["connects"]


@needs_sockets
@pytest.mark.timeout(120)
class TestClusterAvailability:
    def test_probe_does_not_leak_temp_dirs(self):
        before = {entry for entry in os.listdir(tempfile.gettempdir())
                  if entry.startswith("repro-cluster-probe-")}
        assert cluster_available()
        after = {entry for entry in os.listdir(tempfile.gettempdir())
                 if entry.startswith("repro-cluster-probe-")}
        assert after == before

    def test_unavailable_without_fork(self, monkeypatch):
        # nodes are forked from the template: no os.fork, no cluster (the
        # engine then takes its threaded fallback)
        monkeypatch.delattr(os, "fork")
        assert not cluster_available()


class TestImportGraph:
    def test_node_module_does_not_load_the_http_stack(self):
        # repro.obs serves MetricsServer lazily: the template's one cold
        # start (and every ``import repro``) skips http.server/email/ssl
        loaded = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.runtime.cluster.node\n"
             "from repro.obs import MetricsRegistry\n"
             "print([name for name in ('http.server', 'email', 'ssl', "
             "'repro.obs.httpd') if name in sys.modules])\n"
             "from repro.obs import MetricsServer\n"
             "print(MetricsServer.__module__)"],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
            capture_output=True, text=True, check=True).stdout.split("\n")
        assert loaded[:2] == ["[]", "repro.obs.httpd"]


# --------------------------------------------------------------------------- #
# The template process
# --------------------------------------------------------------------------- #
def _gone(pid: int) -> bool:
    """No such process, or only its unreaped corpse."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        pass
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def _wait_gone(pids, timeout: float = 10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and not all(map(_gone, pids)):
        time.sleep(0.05)
    return [pid for pid in pids if not _gone(pid)]


class AtStart(Supervisor):
    """Calls ``hook(supervisor, template_children)`` once all nodes are
    READY — every node process is alive at that moment."""

    hook = staticmethod(lambda supervisor, children: None)

    def _broadcast_start(self):
        self.hook(self, TEMPLATE.ping()["children"])
        super()._broadcast_start()


def _node_pids(supervisor):
    return [pid for node in supervisor.report()["nodes"].values()
            for pid in node["pids"]]


def _losses(history):
    return [record.train_loss for record in history.records]


#: a stand-in template whose "nodes" print their kernel-registry state;
#: the template itself is polluted with an explicit numpy-opt selection
_POLLUTED_TEMPLATE = """
import os
from repro.kernels import active_backend, registry, set_backend
from repro.runtime.cluster.template import serve

def node(config):
    print(registry._ACTIVE, active_backend().name,
          os.environ.get("TEMPLATE_TEST"), flush=True)
    return config["code"]

set_backend("numpy-opt")
active_backend()
assert registry._ACTIVE == "numpy-opt" and "numpy-opt" in registry._INSTANCES
serve(node)
"""

#: an owner process for the orphan tests: starts a cluster whose worker/0
#: hangs, prints the template and node PIDs, then exits or waits to be killed
_OWNER = """
import json, os, sys, time
from repro.campaign.spec import ScenarioSpec
from repro.runtime.cluster import ClusterOptions, Supervisor
from repro.runtime.cluster.template import TEMPLATE

class Owner(Supervisor):
    def _broadcast_start(self):
        pong = TEMPLATE.ping()
        print(json.dumps([pong["pid"]] + pong["children"]), flush=True)
        if sys.argv[2] == "exit":
            sys.exit(0)  # teardown and atexit run
        time.sleep(600)

Owner(ScenarioSpec.from_json(sys.argv[1]), options=ClusterOptions(
    debug_hooks={"worker/0": {"hang_after_ready": True}},
    shutdown_timeout=0.5)).run()
"""


@pytest.fixture
def started(monkeypatch):
    """Command line of every interpreter the template module starts."""
    commands, popen = [], subprocess.Popen

    def recording(command, **kwargs):
        commands.append(list(command))
        return popen(command, **kwargs)

    monkeypatch.setattr(template_module.subprocess, "Popen", recording)
    return commands


@pytest.fixture
def stand_in():
    """Templates with another command line, stopped after the test."""
    made = []

    def make(*command):
        made.append(Template())
        made[-1].command = command
        return made[-1]

    yield make
    for template in made:
        template.stop()


@needs_sockets
@pytest.mark.timeout(180)
class TestTemplate:
    def test_runs_share_one_template_that_parents_every_node(
            self, monkeypatch, started):
        TEMPLATE.stop()
        seen = []
        monkeypatch.setattr(AtStart, "hook", staticmethod(
            lambda supervisor, children: seen.append(
                (TEMPLATE.pid, children, _node_pids(supervisor)))))
        first, second = AtStart(small_spec()), AtStart(small_spec())
        assert _losses(first.run()) == _losses(second.run())
        (pid_a, children_a, nodes_a), (pid_b, children_b, nodes_b) = seen
        # one interpreter start for fourteen nodes: the template's own
        assert started == [
            [sys.executable, "-m", "repro.runtime.cluster.node"]]
        assert pid_a == pid_b == TEMPLATE.pid
        # every node is a child the template forked, fresh for each run
        assert len(nodes_a) == 7 and sorted(nodes_a) == children_a
        assert len(nodes_b) == 7 and sorted(nodes_b) == children_b
        assert not set(nodes_a) & set(nodes_b)

    def test_idle_between_runs(self):
        Supervisor(small_spec()).run()
        pong = TEMPLATE.ping()
        assert pong["pid"] == TEMPLATE.pid
        assert pong["children"] == [] and pong["threads"] == 1
        if not os.path.isdir("/proc"):
            return

        def stat():
            with open(f"/proc/{pong['pid']}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            return fields[0], int(fields[11]) + int(fields[12])

        state, ticks = stat()
        time.sleep(0.5)
        # asleep on its request pipe, and it burnt no CPU tick meanwhile
        assert (state, ticks) == ("S", ticks) == stat()
        assert len(os.listdir(f"/proc/{pong['pid']}/task")) == 1

    def test_concurrent_supervisors_interleave_spawns(self):
        # the scheduler daemon's shape: runs on several threads at once
        # (more than this box has cores), all forking from one template
        supervisors = [Supervisor(small_spec()) for _ in range(3)]
        results = {}

        def work(index):
            results[index] = _losses(supervisors[index].run())

        threads = [threading.Thread(target=work, args=(index,))
                   for index in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results[0] == results[1] == results[2] and len(results[0]) == 2
        pids = [pid for supervisor in supervisors
                for pid in _node_pids(supervisor)]
        assert len(set(pids)) == 21
        codes = [code for supervisor in supervisors
                 for node in supervisor.report()["nodes"].values()
                 for code in node["exit_codes"]]
        assert codes == [0] * 21
        assert TEMPLATE.ping()["children"] == []

    def test_dead_template_is_restarted_by_the_next_run(self):
        reference = _losses(Supervisor(small_spec()).run())
        dead = TEMPLATE.pid
        os.kill(dead, signal.SIGKILL)
        assert not _wait_gone([dead])
        assert _losses(Supervisor(small_spec()).run()) == reference
        assert TEMPLATE.pid not in (None, dead)

    def test_template_that_cannot_start_fails_the_run_once(
            self, monkeypatch, started, stand_in):
        monkeypatch.setattr(supervisor_module, "TEMPLATE", stand_in(
            sys.executable, "-c", "import sys; sys.exit('no template today')"))
        supervisor = Supervisor(small_spec())
        with pytest.raises(SupervisorError, match=(
                r"template process failed to start \(exit code 1\)\n"
                r"--- template stderr tail ---\nno template today")):
            supervisor.run()
        assert len(started) == 1  # no retry loop
        assert _node_pids(supervisor) == []

    def test_template_dying_mid_run_fails_the_run_and_kills_the_nodes(
            self, monkeypatch):
        doomed = []

        def kill_template(supervisor, children):
            doomed.append(TEMPLATE.pid)
            os.kill(TEMPLATE.pid, signal.SIGKILL)

        monkeypatch.setattr(AtStart, "hook", staticmethod(kill_template))
        # worker/0 never joins a quorum, so the run cannot finish before
        # the monitor notices the template is gone
        supervisor = AtStart(small_spec(), options=ClusterOptions(
            debug_hooks={"worker/0": {"hang_after_ready": True}},
            shutdown_timeout=2.0))
        with pytest.raises(SupervisorError, match=(
                rf"template process \(pid {TEMPLATE.ping()['pid']}\) died")):
            supervisor.run()
        pids = _node_pids(supervisor)
        assert len(pids) == 7 and not _wait_gone(pids + doomed)
        codes = [node["exit_codes"]
                 for node in supervisor.report()["nodes"].values()]
        assert codes == [[-9]] * 7
        # the next run starts a new template, transparently
        assert len(Supervisor(small_spec()).run().records) == 2

    def test_template_refuses_to_fork_with_threads(self, tmp_path, stand_in):
        threaded = stand_in(sys.executable, "-c", (
            "import threading, time\n"
            "from repro.runtime.cluster.template import serve\n"
            "threading.Thread(target=time.sleep, args=(60,), "
            "daemon=True).start()\n"
            "serve(lambda config: 0)\n"))
        assert threaded.ping()["threads"] == 2
        with pytest.raises(TemplateError, match="not single-threaded"):
            threaded.spawn({}, str(tmp_path / "node.log"), {})
        assert threaded.ping()["children"] == []

    @pytest.mark.parametrize("ending", ["exit", "kill"])
    def test_no_process_outlives_the_owner(self, ending):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        owner = subprocess.Popen(
            [sys.executable, "-c", _OWNER, small_spec().to_json(), ending],
            stdout=subprocess.PIPE, env=env)
        try:
            pids = json.loads(owner.stdout.readline())
            assert len(pids) == 8  # the template and its seven nodes
            if ending == "kill":
                assert not any(map(_gone, pids))
                owner.kill()
            owner.wait(timeout=30)
            assert not _wait_gone(pids)
        finally:
            owner.kill()
            owner.wait()
            owner.stdout.close()

    def test_environment_is_the_callers_at_spawn_time(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        reference = _losses(Supervisor(small_spec()).run())
        warm = TEMPLATE.pid
        # changed after the template is warm: must reach the next nodes
        monkeypatch.setenv(ENV_VAR, "no-such-backend")
        supervisor = Supervisor(small_spec(),
                                options=ClusterOptions(shutdown_timeout=2.0))
        with pytest.raises(SupervisorError, match=(
                r"failed: ValueError: unknown kernel backend "
                r"'no-such-backend'")) as raised:
            supervisor.run()
        failed = str(raised.value).split()[1]
        assert supervisor.report()["nodes"][failed]["exit_codes"] == [14]
        monkeypatch.setenv(ENV_VAR, "numpy-opt")
        assert _losses(Supervisor(small_spec()).run()) == reference
        assert TEMPLATE.pid == warm

    def test_template_state_cannot_leak_a_backend_into_a_node(
            self, tmp_path, stand_in):
        polluted = stand_in(sys.executable, "-c", _POLLUTED_TEMPLATE)
        log = tmp_path / "node.log"
        for value, code in (("1", 0), ("2", 14)):
            env = dict(os.environ, TEMPLATE_TEST=value)
            env.pop(ENV_VAR, None)
            process = polluted.spawn({"code": code}, str(log), env)
            assert process.wait(timeout=30) == code
        env[ENV_VAR] = "numpy-opt"
        assert polluted.spawn({"code": 0}, str(log), env).wait(30) == 0
        # neither the template's explicit selection nor its environment
        assert log.read_text().splitlines() == [
            "None reference 1", "None reference 2", "None numpy-opt 2"]

    def test_forked_copy_of_the_owner_forgets_the_template(self):
        warm = TEMPLATE.ping()["pid"]
        child = os.fork()
        if child == 0:
            # e.g. a multiprocessing pool worker: the parent's template
            # is not this process's to talk to
            os._exit(0 if TEMPLATE.pid is None else 1)
        assert os.waitpid(child, 0)[1] == 0
        assert TEMPLATE.ping()["pid"] == warm
