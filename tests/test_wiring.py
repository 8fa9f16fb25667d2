"""The one scenario → nodes derivation (``repro.core.wiring``) and the one
live node loop (``repro.runtime.live``).

Every runtime derives its nodes from a ``ClusterWiring``; the threaded and
cluster runtimes run them on ``LiveNode``.  These tests pin what stored
results were computed with (the per-node streams, as literals), what must
be true of every consumer (validation text, error precedence, fault-gated
attack maps), the exact message sequence of the shared loops against a
scripted in-memory endpoint, and — structurally — that the derivation
exists in one source file.
"""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil
import re
import shutil

import numpy as np
import pytest

import repro
from repro.adversary import (
    Adversary,
    CorruptedModelAttack,
    ServerAttack,
    SignFlipAttack,
    WorkerAttack,
)
from repro.adversary import get as get_adversary
from repro.adversary.engine import wire_attacks
from repro.batch import BatchedGuanYuTrainer, spec_supports_batching
from repro.campaign import ScenarioSpec, build_trainer
from repro.core import ClusterConfig, GuanYuTrainer
from repro.core import wiring as wiring_module
from repro.core.wiring import ClusterWiring, SeedWiring
from repro.faults import (
    FaultEvent,
    FaultSchedule,
    GatedServerAttack,
    GatedWorkerAttack,
)
from repro.runtime.cluster.node import ClusterNodeProcess
from repro.runtime.cluster.supervisor import Supervisor
from repro.runtime.live import LiveNode
from repro.runtime.threads import ThreadedClusterRuntime

CONFIG = ClusterConfig(num_servers=6, num_workers=9, num_byzantine_servers=1,
                       num_byzantine_workers=2)


def guanyu_trainer(blobs_split, model_fn, **kwargs):
    return GuanYuTrainer(config=CONFIG, model_fn=model_fn,
                         train_dataset=blobs_split[0], **kwargs)


def threaded_runtime(blobs_split, model_fn, **kwargs):
    return ThreadedClusterRuntime(config=CONFIG, model_fn=model_fn,
                                  train_dataset=blobs_split[0], **kwargs)


def bare_wiring(blobs_split, model_fn, fault_schedule=None, **kwargs):
    return ClusterWiring(SeedWiring(CONFIG, blobs_split[0],
                                    fault_schedule=fault_schedule), **kwargs)


CONSTRUCTORS = [guanyu_trainer, threaded_runtime]


# --------------------------------------------------------------------------- #
# Validation: one call, one text, every constructor
# --------------------------------------------------------------------------- #
# Argument *factories*: an adversary instance binds to one run.
REJECTED = [
    pytest.param(lambda: dict(num_attacking_workers=1),
                 "num_attacking_workers > 0 requires a worker_attack",
                 id="worker-count-without-attack"),
    pytest.param(lambda: dict(num_attacking_servers=1),
                 "num_attacking_servers > 0 requires a server_attack",
                 id="server-count-without-attack"),
    pytest.param(lambda: dict(worker_attack=SignFlipAttack(),
                              num_attacking_workers=3),
                 "more attacking workers than the declared Byzantine count",
                 id="workers-above-budget"),
    pytest.param(lambda: dict(server_attack=CorruptedModelAttack(),
                              num_attacking_servers=2),
                 "more attacking servers than the declared Byzantine count",
                 id="servers-above-budget"),
    pytest.param(lambda: dict(adversary=get_adversary("collusion"),
                              worker_attack=SignFlipAttack(),
                              num_attacking_workers=1),
                 "give either an adversary or legacy per-node attacks, not "
                 "both", id="adversary-and-legacy-attack"),
]


class TestAttackValidation:
    @pytest.mark.parametrize("arguments, message", REJECTED)
    def test_every_constructor_rejects_with_the_same_text(
            self, blobs_split, softmax_model_fn, arguments, message):
        raised = []
        for construct in CONSTRUCTORS:
            with pytest.raises(ValueError) as error:
                construct(blobs_split, softmax_model_fn, **arguments())
            raised.append(str(error.value))
        assert raised[0].startswith(message)
        assert len(set(raised)) == 1

    @pytest.mark.parametrize("arguments", [
        lambda: dict(worker_attack=SignFlipAttack(), num_attacking_workers=2),
        lambda: dict(adversary=get_adversary("collusion"),
                     num_attacking_workers=1),
        lambda: dict(worker_attack=SignFlipAttack()),  # nobody attacking
    ])
    def test_every_constructor_accepts(self, blobs_split, softmax_model_fn,
                                       arguments):
        for construct in CONSTRUCTORS:
            construct(blobs_split, softmax_model_fn, **arguments())


# --------------------------------------------------------------------------- #
# The streams stored results were computed with
# --------------------------------------------------------------------------- #
def shard_rows(shard, features):
    return [int(np.flatnonzero((shard.features == row).all(axis=1))[0])
            for row in features]


class TestPinnedStreams:
    """Seed 0, the default blobs scenario.  A change here re-addresses
    nothing and silently invalidates every stored history."""

    BATCHES = {
        0: [[15, 39, 64, 45, 62, 35, 15, 15, 38, 40, 22, 14, 37, 21, 19, 57],
            [14, 41, 0, 65, 68, 61, 52, 18, 60, 14, 48, 74, 11, 50, 9, 21]],
        3: [[22, 14, 44, 19, 21, 37, 65, 50, 60, 57, 35, 54, 16, 25, 48, 45],
            [36, 73, 19, 53, 70, 16, 29, 10, 40, 53, 14, 65, 72, 29, 0, 8]],
    }
    SHARD_HEADS = {0: [389, 103, 527, 528, 105, 26],
                   3: [17, 152, 584, 52, 366, 540]}

    @pytest.fixture(scope="class")
    def wired(self):
        spec = ScenarioSpec(seed=0)
        wiring, _test, _model_fn = ClusterWiring.from_spec(spec)
        train = wiring_module.scenario_arguments(spec)[0]["train_dataset"]
        return wiring, train

    @pytest.mark.parametrize("index", [0, 3])
    def test_shard_and_first_two_mini_batches(self, wired, index):
        wiring, train = wired
        shard = wiring.seeded.shards[index]
        assert len(shard) == 76
        assert shard_rows(train, shard.features[:6]) == self.SHARD_HEADS[index]
        loader = wiring.seeded.loader(index)
        drawn = [shard_rows(shard, loader.next_batch()[0]) for _ in range(2)]
        assert drawn == self.BATCHES[index]

    def test_node_rng_streams(self, wired):
        wiring, _ = wired
        assert (wiring.worker_rng_seed(2), wiring.server_rng_seed(1)) \
            == (2002, 3001)
        model_fn = ClusterWiring.from_spec(ScenarioSpec(seed=0))[2]
        worker = wiring.worker(2, model_fn())
        server = wiring.server(1, model_fn())
        assert worker._rng.random() == 0.8887593573530179
        assert server._rng.random() == 0.9177015205683998


# --------------------------------------------------------------------------- #
# Error precedence: nothing touches the dataset before the wiring is valid
# --------------------------------------------------------------------------- #
class TestErrorPrecedence:
    @pytest.fixture(autouse=True)
    def no_partitioning(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("partition_dataset ran before validation")

        monkeypatch.setattr(wiring_module, "partition_dataset", fail)

    @pytest.mark.parametrize("construct", CONSTRUCTORS + [bare_wiring])
    def test_adversary_plus_legacy_attack(self, blobs_split,
                                          softmax_model_fn, construct):
        with pytest.raises(ValueError, match="not both"):
            construct(blobs_split, softmax_model_fn,
                      adversary=get_adversary("collusion"),
                      worker_attack=SignFlipAttack(), num_attacking_workers=1)

    @pytest.mark.parametrize("construct", CONSTRUCTORS + [bare_wiring])
    def test_unknown_fault_node(self, blobs_split, softmax_model_fn,
                                construct):
        schedule = FaultSchedule.crash_window(["ps/17"], 1, 2)
        with pytest.raises(ValueError, match="unknown nodes"):
            construct(blobs_split, softmax_model_fn, fault_schedule=schedule)

    def test_servers_and_the_supervisor_never_partition(self):
        spec = ScenarioSpec(name="lazy", trainer="guanyu_threaded",
                            runtime="cluster", num_steps=2)
        ClusterNodeProcess(node_config(spec, "server", 0))
        supervisor = Supervisor(spec)
        shutil.rmtree(supervisor._dir, ignore_errors=True)
        assert supervisor.attacking_workers == set()


# --------------------------------------------------------------------------- #
# Fault-gated attack maps, for every consumer
# --------------------------------------------------------------------------- #
def node_config(spec, role, index):
    prefix = "worker" if role == "worker" else "ps"
    return {"node_id": f"{prefix}/{index}", "role": role, "index": index,
            "num_steps": spec.num_steps, "address": {}, "control": {},
            "spec": spec.to_dict()}


class TestGatedAttackMaps:
    ATTACKERS = ["worker/7", "worker/8", "ps/5"]

    def spec(self, trainer):
        schedule = FaultSchedule(events=[
            FaultEvent(step=1, kind="activate_attack", nodes=self.ATTACKERS),
            FaultEvent(step=3, kind="deactivate_attack",
                       nodes=self.ATTACKERS)])
        return ScenarioSpec(name="gated", trainer=trainer, num_steps=4,
                            worker_attack="sign_flip",
                            server_attack="corrupted_model",
                            faults=schedule.to_dict())

    def assert_gated(self, worker_attacks, server_attacks):
        for node_id, attack in {**worker_attacks, **server_attacks}.items():
            if node_id not in self.ATTACKERS:
                assert attack is None
            elif node_id.startswith("worker"):
                assert isinstance(attack, GatedWorkerAttack)
            else:
                assert isinstance(attack, GatedServerAttack)

    def test_simulator_and_threaded_nodes(self):
        for trainer in ("guanyu", "guanyu_threaded"):
            built = build_trainer(self.spec(trainer))
            self.assert_gated(
                {node.node_id: node.attack for node in built.workers},
                {node.node_id: node.attack for node in built.servers})

    def test_batched_lanes(self):
        specs = [self.spec("guanyu").replace(name=f"g{seed}", seed=seed)
                 for seed in (0, 1)]
        for lane in BatchedGuanYuTrainer(specs).lanes:
            self.assert_gated(lane.worker_attacks, lane.server_attacks)

    def test_cluster_node_processes(self):
        spec = self.spec("guanyu_threaded").replace(runtime="cluster")
        worker = ClusterNodeProcess(node_config(spec, "worker", 8))
        server = ClusterNodeProcess(node_config(spec, "server", 5))
        honest = ClusterNodeProcess(node_config(spec, "worker", 0))
        self.assert_gated({"worker/8": worker.node.attack,
                           "worker/0": honest.node.attack},
                          {"ps/5": server.node.attack})

    def test_a_node_config_must_name_the_node_it_indexes(self):
        spec = self.spec("guanyu_threaded").replace(runtime="cluster")
        config = dict(node_config(spec, "worker", 8), node_id="worker/0")
        with pytest.raises(ValueError, match="is not worker 8"):
            ClusterNodeProcess(config)


# --------------------------------------------------------------------------- #
# The shared loops against a scripted endpoint (no threads, no sockets)
# --------------------------------------------------------------------------- #
class ScriptedEndpoint:
    """An in-memory endpoint: quorums are served from a script, everything
    the node does is appended to ``log`` (the step is every entry's last
    field)."""

    def __init__(self, log, payload):
        self.log = log
        self.payload = payload

    def wait_quorum(self, kind, step, quorum, timeout):
        self.log.append(("wait", kind.value, quorum, step))
        return [self.payload(kind, step).copy() for _ in range(quorum)]

    def send(self, recipient, kind, step, payload):
        assert payload is not None
        self.log.append(("send", recipient, kind.value, step))

    def abandon_step(self, step):
        self.log.append(("abandon", step))


class RecordingNode(LiveNode):
    span_prefix = "thr"
    runtime_label = "threads"

    def __init__(self, wiring, node, log, payload):
        super().__init__(wiring, node, ScriptedEndpoint(log, payload),
                         quorum_timeout=1.0)
        self.log = log

    def publish_observation(self, step, gradient):
        self.log.append(("observe", step))

    def reported_steps(self, key):
        """The steps of this node's report under ``key``, its values
        checked finite."""
        pairs = self.report()[key]
        assert all(np.isfinite(value) for _step, value in pairs)
        return [step for step, _value in pairs]

    def on_scheduled_crash(self, step):
        self.log.append(("crash", step))


class TestSharedLoops:
    SERVERS = ["ps/0", "ps/1", "ps/2"]
    WORKERS = ["worker/0", "worker/1", "worker/2", "worker/3"]

    def wiring(self, **fields):
        spec = ScenarioSpec(**{
            "name": "loops", "trainer": "guanyu_threaded", "num_workers": 4,
            "num_servers": 3, "declared_byzantine_workers": 0,
            "declared_byzantine_servers": 0, "num_steps": 3, **fields})
        wiring, _test, model_fn = ClusterWiring.from_spec(spec)
        return wiring, model_fn

    def test_worker_loop_message_sequence(self):
        wiring, model_fn = self.wiring()
        theta = model_fn().get_flat_parameters()
        log = []
        node = RecordingNode(wiring, wiring.worker(1, model_fn()), log,
                             lambda kind, step: theta)
        node.run_steps(0, 2)
        expected = []
        for step in (0, 1):
            expected += [("wait", "model_to_worker", 3, step)]
            expected += [("send", server, "gradient_to_server", step)
                         for server in self.SERVERS]
        assert log == expected
        assert node.reported_steps("losses") == [0, 1]
        assert node.report()["step_times"] == []
        assert node.report()["parameters"] is None

    def test_server_loop_message_sequence(self):
        wiring, model_fn = self.wiring()
        size = model_fn().num_parameters()
        log = []
        node = RecordingNode(wiring, wiring.server(2, model_fn()), log,
                             lambda kind, step: np.zeros(size))
        node.run_steps(0, 2)
        expected = []
        for step in (0, 1):
            expected += [("send", worker, "model_to_worker", step)
                         for worker in self.WORKERS]
            expected += [("wait", "gradient_to_server", 3, step)]
            expected += [("send", server, "model_to_server", step)
                         for server in self.SERVERS]
            expected += [("wait", "model_to_server", 3, step)]
        assert log == expected
        assert node.reported_steps("step_times") == [0, 1]
        assert node.report()["losses"] == []
        assert np.array_equal(node.report()["parameters"],
                              node.node.current_parameters())

    def test_sat_out_steps_abandon_their_mail_and_send_nothing(self):
        # worker/0 crashes for step 1; ps/2 is cut off from every worker
        # for step 1 (alive, but short of its gradient quorum).
        schedule = FaultSchedule(events=[
            FaultEvent(step=1, kind="crash", nodes=["worker/0"]),
            FaultEvent(step=2, kind="recover", nodes=["worker/0"]),
            FaultEvent(step=1, kind="partition",
                       groups=[["ps/2"], self.WORKERS], label="cut"),
            FaultEvent(step=2, kind="heal", label="cut")])
        wiring, model_fn = self.wiring(faults=schedule.to_dict())
        theta = model_fn().get_flat_parameters()

        log = []
        worker = RecordingNode(wiring, wiring.worker(0, model_fn()), log,
                               lambda kind, step: theta)
        worker.run_steps(0, 3)
        assert [entry for entry in log if entry[-1] == 1] \
            == [("crash", 1), ("abandon", 1)]
        assert [entry[0] for entry in log if entry[-1] == 2] \
            == ["wait", "send", "send", "send"]
        assert worker.reported_steps("losses") == [0, 2]

        log = []
        server = RecordingNode(wiring, wiring.server(2, model_fn()), log,
                               lambda kind, step: np.zeros_like(theta))
        server.run_steps(0, 3)
        assert [entry for entry in log if entry[-1] == 1] == [("abandon", 1)]
        assert server.reported_steps("step_times") == [0, 2]

    def test_observing_adversary_reads_every_honest_gradient(self):
        wiring, model_fn = self.wiring(
            num_workers=6, declared_byzantine_workers=1,
            adversary="collusion", num_attacking_workers=1)
        assert wiring.needs_observation_board
        assert wiring.expected_publishers(0) == [
            f"worker/{index}" for index in range(5)]
        theta = model_fn().get_flat_parameters()
        log = []
        node = RecordingNode(wiring, wiring.worker(0, model_fn()), log,
                             lambda kind, step: theta)
        node.run_steps(0, 1)
        assert log[:2] == [("wait", "model_to_worker", 3, 0), ("observe", 0)]
        assert node.reported_steps("losses") == [0]

    def test_spans_carry_the_runtime_prefix(self):
        from repro.obs import MetricsRegistry, Tracer, use_registry
        from repro.obs.tracer import use_tracer

        wiring, model_fn = self.wiring()
        size = model_fn().num_parameters()
        tracer, registry = Tracer(), MetricsRegistry()
        with use_tracer(tracer), use_registry(registry):
            RecordingNode(wiring, wiring.server(0, model_fn()), [],
                          lambda kind, step: np.zeros(size)).run_steps(0, 1)
        assert [event.name for event in tracer.events()] == [
            "thr.server.broadcast", "thr.server.gather",
            "thr.server.aggregate", "thr.server.apply"]
        assert {labels for labels in registry.histogram(
            "repro_step_phase_seconds").series} == {
            (("phase", phase), ("runtime", "threads"))
            for phase in ("broadcast", "gather", "aggregate", "apply")}


# --------------------------------------------------------------------------- #
# One copy, structurally
# --------------------------------------------------------------------------- #
SOURCE_ROOT = pathlib.Path(repro.__file__).parent


def files_matching(pattern, *packages):
    roots = [SOURCE_ROOT / package for package in packages] or [SOURCE_ROOT]
    compiled = re.compile(pattern)
    return sorted(
        str(path.relative_to(SOURCE_ROOT))
        for root in roots for path in root.rglob("*.py")
        if any(compiled.search(line)
               for line in path.read_text(encoding="utf-8").splitlines()))


class TestOneCopy:
    @pytest.mark.parametrize("offset", ["1000", "2000", "3000"])
    def test_seed_offsets_live_in_the_wiring(self, offset):
        assert files_matching(rf"\+ {offset}\b") == ["core/wiring.py"]

    def test_partition_dataset_is_called_from_the_wiring(self):
        assert files_matching(r"partition_dataset\(", "core", "runtime",
                              "batch") == ["core/wiring.py"]

    def test_wire_attacks_is_called_from_the_wiring(self):
        callers = [path for path in files_matching(r"wire_attacks\(")
                   if not path.startswith("adversary")]
        assert callers == ["core/wiring.py"]

    def test_wire_attacks_is_one_path(self):
        # no "adversary is None" (or any other) fork: the wiring hands it
        # the run's one adversary, lifted or not
        tree = ast.parse(inspect.getsource(wire_attacks))
        assert not [node for node in ast.walk(tree)
                    if isinstance(node, ast.If)]
        parameters = set(inspect.signature(wire_attacks).parameters)
        assert "adversary" in parameters
        assert not parameters & {"worker_attack", "server_attack"}

    def test_one_count_rule_over_the_one_adversary(self):
        assert list(inspect.signature(
            wiring_module.validate_attack_counts).parameters) == [
            "config", "adversary", "num_attacking_workers",
            "num_attacking_servers"]
        for side in ("worker", "server"):
            assert files_matching(rf"> 0 requires a {side}_attack", "core",
                                  "adversary", "runtime", "batch") \
                == ["core/wiring.py"]

    def test_one_threat_package_one_registry_table(self):
        repository = SOURCE_ROOT.parent.parent
        gone = re.compile(r"repro\." + "byzantine")
        sources = [repository / "README.md"] + [
            path for directory in ("src", "tests", "benchmarks", "examples",
                                   "docs")
            for path in (repository / directory).rglob("*")
            if path.suffix in (".py", ".md")]
        assert [str(path.relative_to(repository)) for path in sources
                if gone.search(path.read_text(encoding="utf-8"))] == []
        assert not (SOURCE_ROOT / "byzantine").exists()

        def is_behaviour_table(value):
            return (isinstance(value, dict) and value
                    and all(inspect.isclass(entry) and issubclass(
                        entry, (WorkerAttack, ServerAttack, Adversary))
                        for entry in value.values()))

        tables = [
            f"{module.__name__}.{name}"
            for module in (importlib.import_module(info.name)
                           for info in pkgutil.walk_packages(
                               repro.__path__, prefix="repro."))
            for name, value in vars(module).items()
            if is_behaviour_table(value)]
        assert tables == ["repro.adversary.registry._REGISTRY"]

    def test_one_spec_type_for_the_three_threat_fields(self):
        from repro.campaign import spec as spec_module

        types = {field.name: field.type
                 for field in dataclasses.fields(ScenarioSpec)}
        assert {types[name] for name in ("worker_attack", "server_attack",
                                         "adversary")} \
            == {"Optional[AttackSpec]"}
        assert [name for name, value in vars(spec_module).items()
                if dataclasses.is_dataclass(value)
                and value.__module__ == spec_module.__name__
                and [f.name for f in dataclasses.fields(value)]
                == ["name", "kwargs"]] == ["AttackSpec"]

    def test_participation_and_straggling_live_in_the_wiring(self):
        assert files_matching(r"participating_nodes\(", "core", "runtime",
                              "batch") == ["core/wiring.py"]
        assert files_matching(r"def expected_publishers") \
            == ["core/wiring.py"]
        assert files_matching(r"^HETERO_STRAGGLER_UNIT = ") \
            == ["core/wiring.py"]

    def test_one_phase_emit(self):
        # a phase is timed once, by repro.obs.phase, into both sinks: no
        # hand-paired span + histogram timer is left to drift apart
        assert files_matching(r"record_span|\.timer\(|tracer\.span\(") == []
        assert files_matching(r'kind="span"') == ["obs/telemetry.py"]

    def test_one_dispatch_table(self):
        # which trainer runs where is decided by repro.runtime.facade's
        # tables alone: nobody else compares trainer or runtime names
        compared = files_matching(r"\btrainer\s*(==|!=|(not )?in \()"
                                  r"|\bruntime\s*(==|!=)")
        assert [path for path in compared
                if path != "runtime/facade.py"] == []
        assert "TRAINERS[spec.trainer]" in inspect.getsource(
            spec_supports_batching)

    def test_the_dispatch_detours_are_gone(self):
        repository = SOURCE_ROOT.parent.parent
        gone = re.compile("|".join((
            r"\bCluster" + r"Runtime\b", "_execute" + "_validated",
            r"runtime\." + "fallback", "repro_runtime_" + "fallback_total")))
        sources = [repository / "README.md"] + [
            path for directory in ("src", "tests", "docs", "examples",
                                   ".claude/skills")
            for path in (repository / directory).rglob("*")
            if path.suffix in (".py", ".md")]
        assert [str(path.relative_to(repository)) for path in sources
                if gone.search(path.read_text(encoding="utf-8"))] == []

    def test_trainers_are_built_by_the_dispatch_table(self):
        # every trainer construction goes through repro.runtime.facade's
        # TRAINERS rows; class definitions and docstrings are not calls
        built = {"GuanYuTrainer", "ThreadedClusterRuntime"}

        def constructs(path):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    callee = node.func
                    name = getattr(callee, "id", getattr(callee, "attr", None))
                    if name in built:
                        return True
            return False

        assert sorted(str(path.relative_to(SOURCE_ROOT))
                      for path in SOURCE_ROOT.rglob("*.py")
                      if constructs(path)) == ["runtime/facade.py"]

    def test_one_scenario_description(self):
        repository = SOURCE_ROOT.parent.parent
        gone = re.compile(r"\bExperiment" + r"Scale\b|\bfrom" + r"_scale\b")
        sources = [repository / "README.md"] + [
            path for directory in ("src", "tests", "benchmarks", "examples",
                                   "docs", ".claude/skills")
            for path in (repository / directory).rglob("*")
            if path.suffix in (".py", ".md")]
        assert [str(path.relative_to(repository)) for path in sources
                if gone.search(path.read_text(encoding="utf-8"))] == []

    def test_the_live_runtimes_own_no_protocol_loop(self):
        assert files_matching(r"\.wait_quorum\(", "runtime") \
            == ["runtime/live.py"]
        # the live loop walks ROUTES and names no kind; the one per-kind
        # rule under runtime/ is the simulated clock's
        assert files_matching(r"MessageKind\.[A-Z_]+_TO_", "runtime") \
            == ["runtime/cost.py"]
