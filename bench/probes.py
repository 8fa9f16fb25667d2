"""Layer probes: one public function of one layer, at one workload's shapes.

A probe calls the layer's public entry point with inputs generated from the
seed, at the cluster shape and model size of the workload being traced (its
``shape()`` scenario), and reports count / median / IQR / failures.  The
phase rows (``core.step.*``, ``batch.step.*``, ``runtime.threads.*``) come
from the program's own PR-6 spans, collected through the public
``use_tracer`` scope around one short run at the same shape.  Both kernel
backends are reached through ``get_backend(name)`` / ``use_backend(name)``,
never through the environment.

Every traced run reports every per-layer metric, so each probe runs under
every workload — at that workload's shape, which is what makes the numbers
differ: ``aggregation.median_us`` is microseconds under ``seq_grid``
(D = 36) and tens of milliseconds under ``wide_gar`` (D = 30,730).
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from typing import Callable, Dict, List

import numpy as np

from repro import CampaignSpec, ResultStore, ScenarioSpec, run
from repro.aggregation import get_rule
from repro.batch import BatchedDenseStack
from repro.campaign import CampaignScheduler, build_trainer, run_campaign
from repro.data.loader import DataLoader
from repro.experiments.common import build_scale_bundle
from repro.hetero import HeteroSpec, hetero_partition
from repro.kernels import available_backends, get_backend, use_backend
from repro.network.message import MessageKind
from repro.network.simulator import NetworkSimulator
from repro.nn import CrossEntropyLoss
from repro.obs.httpd import MetricsServer
from repro.obs.telemetry import MetricsRegistry, use_registry
from repro.obs.tracer import Tracer, use_tracer
from repro.runtime.cluster.protocol import Frame, recv_frame, send_frame
from repro.tensor import Tensor

from spans import PHASES, quartiles, timed
from workloads import (GARS, live_spec, losses_of, real_history,
                       synthetic_specs)

SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}


class Probes:
    """Collects ``name -> {value, unit, n, iqr, failures}`` rows."""

    def __init__(self, quick: bool = False) -> None:
        self.rows: Dict[str, Dict] = {}
        #: the smoke run checks names and plumbing: two samples will do
        self.quick = quick

    def time(self, name: str, function: Callable[[], object],
             min_samples: int = 15, max_seconds: float = 0.3) -> None:
        """Median wall time of ``function``; the unit is the name's suffix."""
        unit = name.rsplit("_", 1)[1]
        try:
            if self.quick:
                samples = timed(function, 2, 0.0, 1)
            else:
                samples = timed(function, min_samples, max_seconds)
        except Exception as exc:  # a probe failure is a reported failure
            self.rows[name] = {"value": 0.0, "unit": unit, "n": 0,
                               "iqr": 0.0, "failures": 1, "error": repr(exc)}
            return
        self.samples(name, unit, [s * SCALE[unit] for s in samples])

    def samples(self, name: str, unit: str, values: List[float]) -> None:
        stats = quartiles(values)
        self.rows[name] = {"value": stats["p50"], "unit": unit,
                           "n": stats["n"],
                           "iqr": stats["p75"] - stats["p25"], "failures": 0}

    def value(self, name: str, unit: str, value: float) -> None:
        self.rows[name] = {"value": float(value), "unit": unit, "n": 1,
                           "iqr": 0.0, "failures": 0}


def is_wide(shape: ScenarioSpec) -> bool:
    """A step at this shape costs a third of a second, not milliseconds:
    the probes that run whole scenarios take fewer steps."""
    return shape.dataset == "images" and shape.image_size >= 32


def simulated_twin(shape: ScenarioSpec, steps: int) -> ScenarioSpec:
    """The shape on the sequential simulator, ``steps`` long."""
    return shape.replace(name="probe-seq", trainer="guanyu", runtime=None,
                         num_steps=steps, eval_every=steps)


def live_twin(shape: ScenarioSpec, steps: int) -> ScenarioSpec:
    """The minimal full-quorum cluster carrying the shape's data and model:
    the live probes keep 7 nodes whatever the shape, so a 39-node shape does
    not mean 39 processes on 2 cores."""
    return live_spec(shape.seed, steps, dataset=shape.dataset,
                     dataset_size=shape.dataset_size,
                     image_size=shape.image_size, model=shape.model,
                     batch_size=shape.batch_size)


def phase_means(tracer: Tracer, prefix: str, names=PHASES) -> Dict[str, float]:
    """Mean seconds per span, for the spans ``<prefix><name>``."""
    spans = tracer.summary()["spans"]
    return {name: spans.get(prefix + name, {}).get("mean_s", 0.0)
            for name in names}


# --------------------------------------------------------------------------- #
def probe_spec(out: Probes, shape: ScenarioSpec) -> None:
    grid = CampaignSpec(name="probe", base=shape, grid={
        "gradient_rule": list(GARS), "seed": list(range(16))})
    out.time("campaign.spec.expand_ms", grid.expand, max_seconds=0.5)
    out.time("campaign.spec.validate_us", shape.validate)
    out.time("campaign.spec.hash_us", shape.spec_hash)


def probe_store(out: Probes, shape: ScenarioSpec, tmp_root: str,
                quick: bool) -> None:
    entries = 20 if quick else 200
    # The payload the store workloads store: its size does not follow D.
    history = real_history(shape.seed, quick)
    specs = synthetic_specs(shape.seed, entries)
    root = tempfile.mkdtemp(prefix="probe-store-", dir=tmp_root)
    try:
        store = ResultStore(root)
        puts = []
        for spec in specs:
            mark = time.perf_counter()
            store.put(spec, history, duration_seconds=0.1)
            puts.append((time.perf_counter() - mark) * 1e3)
        out.samples("campaign.store.put_ms", "ms", puts)
        keys = [spec.spec_hash() for spec in specs]
        out.time("campaign.store.open_cold_ms",
                 lambda: ResultStore(root).keys(), min_samples=5)
        cursor = iter(range(10 ** 9))
        out.time("campaign.store.contains_us",
                 lambda: store.contains(keys[next(cursor) % entries]),
                 min_samples=50)
        out.time("campaign.store.get_ms",
                 lambda: store.get(keys[next(cursor) % entries]))
        store.query(gradient_rule="median")  # fold the index once: warm
        reads = store.payload_reads
        out.time("campaign.store.query_warm_ms",
                 lambda: store.query(gradient_rule="median"))
        queries = out.rows["campaign.store.query_warm_ms"]["n"]
        out.value("campaign.store.payload_reads_per_query", "count",
                  (store.payload_reads - reads) / max(queries, 1))
        size = sum(os.path.getsize(os.path.join(folder, name))
                   for folder, _, names in os.walk(root) for name in names)
        out.value("campaign.store.bytes_per_entry", "B", size / entries)
        out.time("campaign.store.fsck_ms", store.fsck, min_samples=3)

        # Engine: four fresh cells through run_campaign, then the same four
        # again (the cached path: contains + get + relabel per scenario).
        short = quick or is_wide(shape)
        cells = [simulated_twin(shape, 2 if short else 10).replace(
            name=f"engine-{rule}", gradient_rule=rule) for rule in GARS]
        started = time.perf_counter()
        first = run_campaign(cells, store=store)
        wall = time.perf_counter() - started
        durations = [o.duration_seconds for o in first.outcomes]
        out.value("campaign.engine.overhead_share", "ratio",
                  1.0 - sum(durations) / wall)
        out.samples("campaign.engine.scenario_p50_ms", "ms",
                    [d * 1e3 for d in durations])
        cached = timed(lambda: run_campaign(cells, store=store), 5, 0.5)
        out.samples("campaign.engine.cached_path_us", "us",
                    [s * 1e6 / len(cells) for s in cached])

        # Scheduler: POST a fully-stored campaign, read the job record and
        # one /results page.
        scheduler = CampaignScheduler(store).start()
        server = MetricsServer(0, routes=scheduler.handle_route).start()
        try:
            body = json.dumps(CampaignSpec(
                name="probe", scenarios=specs[:20]).to_dict()).encode("utf-8")
            submits, waits = [], []
            for _ in range(5):
                request = urllib.request.Request(
                    f"{server.url}/campaigns", data=body, method="POST")
                mark = time.perf_counter()
                with urllib.request.urlopen(request, timeout=30) as reply:
                    job = json.load(reply)
                submits.append((time.perf_counter() - mark) * 1e3)
                while job["state"] not in ("done", "failed"):
                    time.sleep(0.005)
                    job = scheduler.job(job["id"])
                waits.append((job["started_at"] - job["submitted_at"]) * 1e3)
            out.samples("campaign.scheduler.submit_ms", "ms", submits)
            out.samples("campaign.scheduler.queue_wait_ms", "ms", waits)

            def results_page() -> None:
                with urllib.request.urlopen(
                        f"{server.url}/results?gradient_rule=%22median%22",
                        timeout=30) as reply:
                    reply.read()
            out.time("campaign.scheduler.results_get_ms", results_page)
        finally:
            server.stop()
            scheduler.stop()
    finally:
        shutil.rmtree(root, ignore_errors=True)


def probe_data_and_compute(out: Probes, shape: ScenarioSpec) -> None:
    sim = simulated_twin(shape, 1)
    scale = sim.to_scale()
    out.time("data.build_bundle_ms", lambda: build_scale_bundle(scale),
             min_samples=5)
    train, _, model_fn, _ = build_scale_bundle(scale)
    hetero = HeteroSpec.from_dict({"partition": "dirichlet", "alpha": 0.5})
    out.time("hetero.partition_ms", lambda: hetero_partition(
        train, shape.num_workers, hetero, seed=shape.seed))
    loader = DataLoader(train, shape.batch_size, seed=shape.seed)
    out.time("data.loader.batch_us", loader.next_batch, min_samples=50)

    # One worker gradient through the public model / loss API.
    model, criterion = model_fn(), CrossEntropyLoss()
    parameters = model.get_flat_parameters()

    def forward_backward() -> np.ndarray:
        model.set_flat_parameters(parameters)
        features, labels = loader.next_batch()
        model.zero_grad()
        criterion(model(Tensor(features)), labels).backward()
        return model.get_flat_gradient()
    out.time("nn.forward_backward_us", forward_backward, min_samples=30)

    # Aggregation and kernels on (q̄, D) gradients and (R, q̄, D) stacks.
    config = sim.cluster_config()
    quorum, dimension = config.gradient_quorum, parameters.size
    replicas = 16 if dimension < 10_000 else 4
    rng = np.random.default_rng(shape.seed)
    gradients = rng.normal(size=(quorum, dimension))
    stacked = rng.normal(size=(replicas, quorum, dimension))
    for name in GARS + ("bulyan",):
        byzantine = config.num_byzantine_workers
        if name == "bulyan":  # needs n >= 4f + 3 inputs
            byzantine = min(byzantine, (quorum - 3) // 4)
        rule = get_rule(name, num_byzantine=byzantine)
        out.time(f"aggregation.{name}_us", lambda: rule.aggregate(gradients))
        if name in ("multi_krum", "median"):
            out.time(f"aggregation.{name}.batched_us",
                     lambda: rule.aggregate_batched(stacked))

    stack = BatchedDenseStack(model)
    flat = np.tile(parameters, (replicas, 1))
    batches = [loader.next_batch() for _ in range(replicas)]
    features = np.stack([batch[0] for batch in batches])
    labels = np.stack([batch[1] for batch in batches])
    for name in available_backends():
        backend = get_backend(name)
        out.time(f"kernels.{name}.pairwise_us",
                 lambda: backend.pairwise_squared_distances(gradients))
        out.time(f"kernels.{name}.median_us",
                 lambda: backend.median(gradients, axis=0))
        with use_backend(name):
            out.time(f"kernels.{name}.dense_fwd_bwd_us",
                     lambda: stack.forward_backward(flat, features, labels))

    # The simulated network: one send, and one quorum collection out of a
    # mailbox holding one message per server.
    network = NetworkSimulator(delay_model=sim.build_delay_model(),
                               seed=shape.seed)
    servers = config.server_ids()
    steps = iter(range(10 ** 9))
    out.time("network.send_us", lambda: network.send(
        servers[0], "worker/0", MessageKind.MODEL_TO_WORKER, next(steps),
        parameters, send_time=0.0), min_samples=50)
    collects = []
    for step in range(10 ** 6, 10 ** 6 + 30):
        network.broadcast("worker/0", servers,
                          MessageKind.GRADIENT_TO_SERVER, step, parameters, 0.0)
        for server in servers:
            network.send(server, servers[0], MessageKind.MODEL_TO_SERVER,
                         step, parameters, send_time=0.0)
        mark = time.perf_counter()
        network.collect_quorum(servers[0], MessageKind.MODEL_TO_SERVER, step,
                               quorum=config.model_quorum)
        collects.append((time.perf_counter() - mark) * 1e6)
    out.samples("network.collect_quorum_us", "us", collects)


def probe_core_and_batch(out: Probes, shape: ScenarioSpec, quick: bool) -> None:
    wide = is_wide(shape)
    steps = 2 if quick or wide else 40
    sim = simulated_twin(shape, steps)
    out.time("core.build_trainer_ms", lambda: build_trainer(sim),
             min_samples=5)

    # Sequential phases, from the program's own seq.step.* spans.
    trainer, tracer = build_trainer(sim), Tracer()
    with use_tracer(tracer):
        trainer.run(steps, eval_every=steps,
                    max_eval_samples=sim.max_eval_samples)
    for phase, seconds in phase_means(tracer, "seq.step.").items():
        out.value(f"core.step.{phase}_ms", "ms", seconds * 1e3)
    out.value("network.msgs_per_step", "count",
              trainer.network.stats.messages_sent / steps)

    # The paper's overhead figure: GuanYu against the vanilla deployment
    # with the same external communication, host wall and simulated clock.
    vanilla = sim.replace(name="probe-vanilla", trainer="vanilla",
                          external_communication=True, gradient_rule="mean")
    results = {}

    def keep(spec: ScenarioSpec) -> None:
        results[spec.name] = run(spec)
    guanyu_wall = min(timed(lambda: keep(sim), 3, 1.5, 2))
    vanilla_wall = min(timed(lambda: keep(vanilla), 3, 1.5, 2))
    out.value("core.guanyu_vs_vanilla_host_ratio", "ratio",
              guanyu_wall / vanilla_wall)
    out.value("core.guanyu_vs_vanilla_sim_ratio", "ratio",
              results[sim.name].history.total_time()
              / results[vanilla.name].history.total_time())

    # Batched phases (batch.step.* spans), R = 1 against sequential, and
    # one group sharded over two lanes against the same group unsharded.
    replicas = 4 if quick or wide else 16
    group = [sim.replace(name=f"probe-r{r}", seed=shape.seed + r)
             for r in range(replicas)]
    tracer = Tracer()
    with use_tracer(tracer):
        run_campaign(group, batch_seeds=True)
    for phase, seconds in phase_means(tracer, "batch.step.").items():
        out.value(f"batch.step.{phase}_ms", "ms", seconds * 1e3)
    batched_one = min(timed(
        lambda: run(sim.replace(runtime="batched")), 3, 1.5, 2))
    out.value("batch.r1_vs_seq_ratio", "ratio", batched_one / guanyu_wall)
    if (os.cpu_count() or 1) < 2:
        # Two lanes on one core measure the pool's overhead, not sharding.
        out.rows["batch.lanes2_ratio"] = {
            "value": None, "unit": "ratio", "n": 0, "iqr": 0.0,
            "failures": 0, "reason": "nproc < 2"}
        return
    unsharded = min(timed(
        lambda: run_campaign(group, batch_seeds=True), 2, 2.0, 2))
    sharded = min(timed(
        lambda: run_campaign(group, batch_seeds=True, lanes=2), 2, 2.0, 2))
    out.value("batch.lanes2_ratio", "ratio", sharded / unsharded)


def probe_live(out: Probes, shape: ScenarioSpec, quick: bool) -> None:
    steps = 3 if quick else (10 if is_wide(shape) else 60)
    live = live_twin(shape, steps)

    tracer = Tracer()
    started = time.perf_counter()
    reference = losses_of(run(live, tracer=tracer).history)
    threaded_wall = time.perf_counter() - started
    names = ("worker.gather", "worker.compute", "server.gather",
             "server.aggregate", "server.apply")
    for name, seconds in phase_means(tracer, "thr.", names).items():
        out.value(f"runtime.threads.{name.replace('.', '_')}_ms", "ms",
                  seconds * 1e3)
    out.value("runtime.threads.step_ms", "ms", threaded_wall / steps * 1e3)

    # One cluster run under a tracer and a registry: per-step time from the
    # servers' step watermarks, spawn + teardown as the rest of the wall,
    # bytes from the PR-9 frame counters.
    registry = MetricsRegistry()
    started = time.perf_counter()
    with use_registry(registry):
        history = run(live.replace(runtime="cluster"), tracer=Tracer()).history
    wall = time.perf_counter() - started
    failures = 0 if losses_of(history) == reference else 1
    marks = [record.simulated_time for record in history.records]
    stepping = (marks[-1] - marks[0]) * steps / max(steps - 1, 1)
    out.value("runtime.cluster.step_ms", "ms", stepping / steps * 1e3)
    out.value("runtime.cluster.spawn_teardown_ms", "ms",
              (wall - stepping) * 1e3)
    out.rows["runtime.cluster.step_ms"]["failures"] = failures
    series = registry.snapshot()["metrics"].get(
        "repro_cluster_bytes_total", {}).get("series", [])
    sent = sum(entry["value"] for entry in series
               if entry["labels"].get("direction") == "out")
    out.value("runtime.cluster.bytes_per_step", "B", sent / steps)

    # The frame codec at the shape's D, and a frame over a socketpair.
    model = build_scale_bundle(live.to_scale())[2]()
    frame = Frame(kind=MessageKind.GRADIENT_TO_SERVER.value, sender="worker/0",
                  recipient="ps/0", step=3,
                  payload=model.get_flat_parameters())
    wire = frame.encode()
    header_length = int.from_bytes(wire[:4], "big")
    header = wire[4:4 + header_length]
    payload = wire[4 + header_length + 8:]
    out.time("runtime.cluster.frame_encode_us", frame.encode, min_samples=50)
    out.time("runtime.cluster.frame_decode_us",
             lambda: Frame.decode(header, payload), min_samples=50)
    left, right = socket.socketpair()
    try:
        def roundtrip() -> None:
            send_frame(left, frame)
            recv_frame(right)
        if len(wire) < 60_000:  # fits the socket buffer: one thread is safe
            out.time("runtime.cluster.frame_roundtrip_us", roundtrip,
                     min_samples=50)
        else:
            def roundtrip_threaded() -> None:
                sender = threading.Thread(target=send_frame,
                                          args=(left, frame))
                sender.start()
                recv_frame(right)
                sender.join()
            out.time("runtime.cluster.frame_roundtrip_us",
                     roundtrip_threaded, min_samples=20)
    finally:
        left.close()
        right.close()

    # What every node process pays before its first protocol step.
    import repro
    environment = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__))))
    out.time("runtime.cluster.import_s", lambda: subprocess.run(
        [sys.executable, "-c", "import repro.runtime.cluster.node"],
        env=environment, check=True), min_samples=3, max_seconds=3.0)


def run_probes(shape: ScenarioSpec, tmp_root: str, quick: bool) -> Dict[str, Dict]:
    """Every layer probe at ``shape``; returns the metric rows."""
    shape.validate()
    out = Probes(quick)
    probe_spec(out, shape)
    probe_store(out, shape, tmp_root, quick)
    probe_data_and_compute(out, shape)
    probe_core_and_batch(out, shape, quick)
    probe_live(out, shape, quick)
    return out.rows
