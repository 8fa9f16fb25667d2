"""The benchmark's workloads: closed loop, one client, inputs from the seed.

Every workload repeats a cycle of fixed-composition *passes* until the run's
time is up; ``run.py`` turns the passes' work and wall times into
``work_per_s``, and their request latencies into ``request_p50_ms``.  What
"work" and "request" mean per workload is in ``README.md``.

The program only ever sees generated ``ScenarioSpec``s; the seed offsets
every seed axis and the synthetic-store generator.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
import urllib.request
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import CampaignSpec, ResultStore, ScenarioSpec, run
from repro.campaign import CampaignScheduler, run_campaign
from repro.obs.httpd import MetricsServer

from spans import NullSpans

GARS = ("multi_krum", "median", "trimmed_mean", "geometric_median")


@dataclass
class Pass:
    """What one pass did."""

    work: int
    #: seconds the work took — the base of ``work_per_s``
    work_wall: float
    #: per-request latencies, seconds
    latencies: List[float]
    attempted: int
    failed: int = 0
    #: first failures, for the report
    errors: List[str] = field(default_factory=list)
    #: SHA-256 of what the pass computed (simulated histories, live losses)
    digest: Optional[str] = None
    #: the history dicts behind ``digest`` (kept for the first pass only)
    histories: List[Dict] = field(default_factory=list)
    #: seconds inside ``run_campaign`` / ``repro.run`` (trace accounting)
    campaign_wall: float = 0.0
    live_wall: float = 0.0


def digest_of(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class SpanStore(ResultStore):
    """A ``ResultStore`` whose public operations record bench-side spans."""

    def __init__(self, root, spans) -> None:
        self._spans = spans
        with spans.span("campaign.store.open"):
            super().__init__(root)

    def contains(self, key):
        with self._spans.span("campaign.store.contains"):
            return super().contains(key)

    def get(self, key):
        with self._spans.span("campaign.store.get"):
            return super().get(key)

    def put(self, *args, **kwargs):
        with self._spans.span("campaign.store.put"):
            return super().put(*args, **kwargs)

    def query(self, **filters):
        with self._spans.span("campaign.store.query"):
            return super().query(**filters)

    def keys(self):
        with self._spans.span("campaign.store.keys"):
            return super().keys()


def campaign_pass(name: str, specs: List[ScenarioSpec], store, spans,
                  request_size: int = 1, expect: str = "ran",
                  steps: Optional[int] = None, keep_digest: bool = False,
                  batched: bool = False) -> Pass:
    """One ``run_campaign`` call; a request is ``request_size`` outcomes."""
    stamps: List[float] = []

    def progress(outcome, completed, total) -> None:
        stamps.append(time.perf_counter())

    started = time.perf_counter()
    with spans.span("campaign.engine.run_campaign", unit=name):
        result = run_campaign(CampaignSpec(name=name, scenarios=specs),
                              store=store, progress=progress,
                              batch_seeds=batched)
    wall = time.perf_counter() - started
    ends = stamps[request_size - 1::request_size]
    latencies = [end - begin
                 for begin, end in zip([started] + ends[:-1], ends)]
    errors = []
    for outcome in result.outcomes:
        if outcome.status != expect or outcome.history is None:
            errors.append(f"{outcome.spec.name}: status {outcome.status}, "
                          f"expected {expect} ({outcome.error})")
        elif steps is not None and len(outcome.history.records) != steps:
            errors.append(f"{outcome.spec.name}: "
                          f"{len(outcome.history.records)} records, "
                          f"expected {steps}")
        elif batched and not outcome.batched:
            errors.append(f"{outcome.spec.name}: fell back to sequential")
    histories = []
    if keep_digest:
        histories = [outcome.history.to_dict() for outcome in result.outcomes
                     if outcome.history is not None]
    work = sum(outcome.spec.num_steps for outcome in result.outcomes
               if outcome.status == "ran") if expect == "ran" else len(specs)
    return Pass(work=work, work_wall=wall, latencies=latencies,
                attempted=len(specs), failed=len(errors), errors=errors[:3],
                digest=digest_of(histories) if keep_digest else None,
                histories=histories, campaign_wall=wall)


class Workload:
    """Base: temp-directory ownership and the traced store handle."""

    name = ""
    #: what ``work_per_s`` counts, and what ``request_p50_ms`` times
    work_unit = ""
    request = ""
    #: passes ``p`` and ``p + cycle`` have the same composition
    cycle = 1
    #: the program starts processes of its own (their memory is sampled)
    spawns_processes = False

    def __init__(self, seed: int, quick: bool, tmp_root: str) -> None:
        self.seed = seed
        self.quick = quick
        self.tmp_root = tmp_root
        self.root: Optional[str] = None
        self.store: Optional[ResultStore] = None
        self._traced_store: Optional[ResultStore] = None

    def shape(self) -> ScenarioSpec:
        """The scenario whose shapes the layer probes use."""
        return ScenarioSpec(name=f"{self.name}-shape", seed=self.seed)

    @staticmethod
    def key(index: int, spans) -> int:
        """A number no other pass of the run has.  A traced run's plain and
        traced passes share one store (and one daemon), so they must never
        share a spec name or a scenario seed.  The first cycle's keys are
        below ``2 * cycle``: those passes keep their digests."""
        return 2 * index + int(spans.enabled)

    def fresh_store(self) -> None:
        self.root = tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.tmp_root)
        self.store = ResultStore(self.root)
        self._traced_store = None

    def store_for(self, spans) -> ResultStore:
        if not spans.enabled:
            return self.store
        if self._traced_store is None:
            self._traced_store = SpanStore(self.root, spans)
        return self._traced_store

    def prepare(self) -> None:
        raise NotImplementedError

    def one_pass(self, index: int, spans) -> Pass:
        raise NotImplementedError

    def check_after(self) -> List[str]:
        """Checks that run once, after the timed region."""
        return []

    def close(self) -> None:
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None


# --------------------------------------------------------------------------- #
# Simulated workloads
# --------------------------------------------------------------------------- #
class SeqGrid(Workload):
    """The sequential simulator over the paper's whole grid, 4 cells a pass.

    The 64-cell grid is 4 GARs x 4 threats x 2 delay models x 2
    environments.  A pass runs one cell per GAR; in pass ``c`` of the cycle
    GAR ``g`` takes grid combination ``(c + 5g) mod 16``, so every pass holds
    all four threats and both delay models and environments, and the 16
    passes of one cycle are the 64 cells, each once.  A run is a whole
    number of cycles, so every run, on a fast or a slow machine, measures
    the same cells.
    """

    name = "seq_grid"
    work_unit = "replica-step"
    request = "one scenario, start to stored result"
    cycle = 16

    THREATS = (
        {},
        {"worker_attack": "sign_flip"},
        {"worker_attack": "little_is_enough",
         "server_attack": "corrupted_model"},
        {"adversary": "collusion"},
    )
    DELAYS = ({}, {"delay_model": "exponential"})
    ENVIRONMENTS = (
        {},
        {"faults": {"events": [
            {"step": 5, "kind": "crash", "nodes": ["ps/5"]},
            {"step": 12, "kind": "recover", "nodes": ["ps/5"]},
            {"step": 3, "kind": "slowdown", "nodes": ["worker/0"],
             "factor": 3.0}]},
         "hetero": {"partition": "dirichlet", "alpha": 0.5}},
    )

    def __init__(self, seed, quick, tmp_root) -> None:
        super().__init__(seed, quick, tmp_root)
        self.steps = 8 if quick else 20

    def cells(self, index: int, key: int) -> List[ScenarioSpec]:
        specs = []
        for g, rule in enumerate(GARS):
            combo = (index + 5 * g) % 16
            fields: Dict = {}
            fields.update(self.THREATS[combo % 4])
            fields.update(self.DELAYS[(combo // 4) % 2])
            fields.update(self.ENVIRONMENTS[combo // 8])
            specs.append(ScenarioSpec(
                name=f"p{key}-{rule}-c{combo}", gradient_rule=rule,
                num_steps=self.steps, seed=self.seed * 100_000 + key,
                **fields))
        return specs

    def prepare(self) -> None:
        self.fresh_store()
        # Warm-up: one scenario, so lazy imports and NumPy set-up are paid.
        run(self.cells(0, 0)[0].replace(name="warm-up", seed=self.seed + 7))

    def one_pass(self, index, spans) -> Pass:
        key = self.key(index, spans)
        return campaign_pass(f"{self.name}-{key}", self.cells(index, key),
                             self.store_for(spans), spans, steps=self.steps,
                             keep_digest=key < 2 * self.cycle)


class SeedSweep(Workload):
    """The batched runtime: two 16-seed groups per pass (one per GAR) under
    one of three attacks, so a cycle of three passes is the 2 x 3 grid."""

    name = "seed_sweep"
    work_unit = "replica-step"
    request = "one 16-seed group, start to 16 stored results"
    cycle = 3

    ATTACKS = (None, "sign_flip", "little_is_enough")

    def __init__(self, seed, quick, tmp_root) -> None:
        super().__init__(seed, quick, tmp_root)
        self.replicas = 4 if quick else 16
        self.steps = 6 if quick else 40
        self._first: List[ScenarioSpec] = []
        self._first_histories: List[Dict] = []

    def groups(self, index: int, key: int) -> List[ScenarioSpec]:
        attack = self.ATTACKS[index % 3]
        return [ScenarioSpec(
            name=f"p{key}-{rule}-{attack}-r{replica}", gradient_rule=rule,
            worker_attack=attack, num_steps=self.steps,
            seed=self.seed * 100_000 + key * self.replicas + replica)
            for rule in ("multi_krum", "median")
            for replica in range(self.replicas)]

    def prepare(self) -> None:
        self.fresh_store()
        warm = [spec.replace(name=f"warm-{i}", num_steps=10,
                             seed=self.seed + 7 + i)
                for i, spec in enumerate(self.groups(0, 0)[:self.replicas])]
        run_campaign(warm, batch_seeds=True)

    def one_pass(self, index, spans) -> Pass:
        key = self.key(index, spans)
        specs = self.groups(index, key)
        done = campaign_pass(f"{self.name}-{key}", specs,
                             self.store_for(spans), spans,
                             request_size=self.replicas, steps=self.steps,
                             keep_digest=key < 2 * self.cycle, batched=True)
        if key == 0:
            self._first, self._first_histories = specs, done.histories
        return done

    def check_after(self) -> List[str]:
        """One replica of the first group must equal its sequential run."""
        if not self._first:
            return ["no pass completed"]
        replica = self.seed % self.replicas
        sequential = run(self._first[replica]).history.to_dict()
        if sequential != self._first_histories[replica]:
            return [f"batched replica {replica} differs from repro.run()"]
        return []


class WideGar(Workload):
    """NumPy-bound: D = 30,730, 30 workers + 9 servers; one rule per pass, a
    cycle of five passes is the five rules."""

    name = "wide_gar"
    work_unit = "replica-step"
    request = "one scenario, start to stored result"
    cycle = 5

    RULES = GARS + ("bulyan",)

    def __init__(self, seed, quick, tmp_root) -> None:
        super().__init__(seed, quick, tmp_root)
        self.steps = 1 if quick else 2

    def cell(self, rule: str, seed: int, name: str) -> ScenarioSpec:
        bulyan = rule == "bulyan"
        return ScenarioSpec(
            name=name, dataset="images", image_size=8 if self.quick else 32,
            model="softmax", num_workers=30, num_servers=9,
            declared_byzantine_workers=5 if bulyan else 6,
            declared_byzantine_servers=2,
            gradient_quorum=25 if bulyan else None,
            gradient_rule=rule, batch_size=8, num_steps=self.steps,
            eval_every=self.steps, seed=seed)

    def shape(self) -> ScenarioSpec:
        return self.cell("multi_krum", self.seed, "wide_gar-shape")

    def prepare(self) -> None:
        self.fresh_store()
        run(self.cell("median", self.seed + 7, "warm-up").replace(
            num_steps=1, eval_every=1))

    def one_pass(self, index, spans) -> Pass:
        key = self.key(index, spans)
        rule = self.RULES[index % 5]
        spec = self.cell(rule, self.seed * 100_000 + key, f"p{key}-{rule}")
        return campaign_pass(f"{self.name}-{key}", [spec],
                             self.store_for(spans), spans, steps=self.steps,
                             keep_digest=key < 2 * self.cycle)


# --------------------------------------------------------------------------- #
# Live workloads: real threads, real processes, real sockets
# --------------------------------------------------------------------------- #
def live_spec(seed: int, steps: int, **fields) -> ScenarioSpec:
    """The minimal full-quorum cluster.  Full quorums and a median make
    every node's quorum multiset scheduling-independent, so loss
    trajectories repeat exactly and cluster losses equal threaded ones."""
    return ScenarioSpec(
        name="live", trainer="guanyu_threaded", num_workers=4, num_servers=3,
        declared_byzantine_workers=0, declared_byzantine_servers=0,
        model_quorum=3, gradient_quorum=4, gradient_rule="median",
        model_rule="median", num_steps=steps, seed=seed, **fields)


def losses_of(history) -> List[Optional[float]]:
    return [record.train_loss for record in history.records]


class LiveThreads(Workload):
    """``repro.run`` on the threaded runtime, one run per pass."""

    name = "live_threads"
    work_unit = "protocol step"
    request = "one repro.run of the whole scenario"
    runtime: Optional[str] = None

    def __init__(self, seed, quick, tmp_root) -> None:
        super().__init__(seed, quick, tmp_root)
        self.steps = 3 if quick else 200
        self.reference: List[Optional[float]] = []

    def shape(self) -> ScenarioSpec:
        return live_spec(self.seed, self.steps)

    def prepare(self) -> None:
        # The threaded run is the warm-up and the reference trajectory.
        self.reference = losses_of(run(self.shape()).history)

    def one_pass(self, index, spans) -> Pass:
        spec = self.shape().replace(runtime=self.runtime)
        started = time.perf_counter()
        with spans.span("runtime.run", unit=f"{self.name}-{index}"):
            history = run(spec).history
        wall = time.perf_counter() - started
        losses = losses_of(history)
        errors = []
        if losses != self.reference or None in losses:
            errors.append(f"pass {index}: losses differ from the threaded "
                          f"reference trajectory")
        return Pass(work=self.steps, work_wall=wall, latencies=[wall],
                    attempted=1, failed=len(errors), errors=errors,
                    digest=digest_of(losses) if index == 0 else None,
                    live_wall=wall)


class LiveCluster(LiveThreads):
    """``repro.run`` on the process cluster: 7 node processes over sockets,
    spawn and teardown included — what a user waits for.  Where the host
    cannot bind sockets the engine falls back to the threaded runtime; the
    run reports ``cluster_available`` so the numbers are not misread."""

    name = "live_cluster"
    runtime = "cluster"
    spawns_processes = True


# --------------------------------------------------------------------------- #
# Store and scheduler workloads
# --------------------------------------------------------------------------- #
HETERO = (None, {"partition": "dirichlet", "alpha": 0.5},
          {"partition": "shards", "shards_per_worker": 2})


def synthetic_specs(seed: int, count: int, offset: int = 0
                    ) -> List[ScenarioSpec]:
    """``gradient_rule`` x hetero x seed specs, all distinct."""
    return [ScenarioSpec(name=f"syn-{i}", gradient_rule=GARS[i % 4],
                         hetero=HETERO[(i // 4) % 3],
                         seed=seed * 1_000_000 + i)
            for i in range(offset, offset + count)]


def real_history(seed: int, quick: bool):
    """One real history, stored under every synthetic spec."""
    return run(ScenarioSpec(name="history", seed=seed,
                            num_steps=8 if quick else 60)).history


class StoreRead(Workload):
    """Reads: a resume pass over stored specs from a freshly opened store
    (``contains`` + ``get`` per spec), then six warm index queries."""

    name = "store_read"
    work_unit = "cached result resolved"
    request = "one warm query()"

    def __init__(self, seed, quick, tmp_root) -> None:
        super().__init__(seed, quick, tmp_root)
        self.entries = 24 if quick else 300
        self.resume = 12 if quick else 200
        self.specs: List[ScenarioSpec] = []

    def prepare(self) -> None:
        self.fresh_store()
        history = real_history(self.seed, self.quick)
        self.specs = synthetic_specs(self.seed, self.entries)
        for spec in self.specs:
            self.store.put(spec, history, duration_seconds=0.25)
        self.expected = {
            "rule": sum(1 for spec in self.specs
                        if spec.gradient_rule == "median"),
            "dotted": sum(1 for spec in self.specs if spec.hetero is not None
                          and spec.hetero.partition == "dirichlet"),
            "meta": len(self.specs),
        }

    def one_pass(self, index, spans) -> Pass:
        begin = (index * self.resume) % self.entries
        specs = (self.specs + self.specs)[begin:begin + self.resume]
        # A new handle per pass: the resume starts from a cold index.
        store = (SpanStore(self.root, spans) if spans.enabled
                 else ResultStore(self.root))
        resume = campaign_pass(f"{self.name}-{index}", specs, store, spans,
                               expect="cached")
        reads_before = store.payload_reads
        latencies, errors = [], []
        for _ in range(2):
            for label, filters in (
                    ("rule", {"gradient_rule": "median"}),
                    ("dotted", {"hetero.partition": "dirichlet"}),
                    ("meta", {"status": "ran"})):
                mark = time.perf_counter()
                found = len(store.query(**filters))
                latencies.append(time.perf_counter() - mark)
                if found != self.expected[label]:
                    errors.append(f"query {label}: {found} results, "
                                  f"expected {self.expected[label]}")
        if store.payload_reads != reads_before:
            errors.append("query() opened entry payloads")
        return Pass(work=len(specs), work_wall=resume.work_wall,
                    latencies=latencies,
                    attempted=len(specs) + len(latencies),
                    failed=resume.failed + len(errors),
                    errors=(resume.errors + errors)[:3],
                    campaign_wall=resume.campaign_wall)

    def check_after(self) -> List[str]:
        report = ResultStore(self.root).fsck()
        return [] if report.ok else [f"fsck: {report.issues[0].detail}"]


class StoreWrite(Workload):
    """Writes: fresh ``put``s (entry file + index append), 25 per pass —
    short passes, so some of them miss the file system's stalls."""

    name = "store_write"
    work_unit = "result put"
    request = "one put()"

    def __init__(self, seed, quick, tmp_root) -> None:
        super().__init__(seed, quick, tmp_root)
        self.per_pass = 10 if quick else 25
        self.written = 0

    def prepare(self) -> None:
        self.fresh_store()
        self.written = 0
        self.history = real_history(self.seed, self.quick)
        self.store.put(ScenarioSpec(name="warm-up", seed=self.seed - 1),
                       self.history, duration_seconds=0.25)

    def one_pass(self, index, spans) -> Pass:
        store = self.store_for(spans)
        specs = synthetic_specs(
            self.seed, self.per_pass,
            offset=self.key(index, spans) * self.per_pass)
        latencies, errors = [], []
        for spec in specs:
            mark = time.perf_counter()
            key = store.put(spec, self.history, duration_seconds=0.25)
            latencies.append(time.perf_counter() - mark)
            if key != spec.spec_hash():
                errors.append(f"{spec.name}: put returned a foreign key")
        self.written += len(specs)
        return Pass(work=len(specs), work_wall=sum(latencies),
                    latencies=latencies, attempted=len(specs),
                    failed=len(errors), errors=errors[:3])

    def check_after(self) -> List[str]:
        store = ResultStore(self.root)
        errors = []
        if len(store) != self.written + 1:
            errors.append(f"store holds {len(store)} entries, "
                          f"{self.written + 1} were put")
        report = store.fsck()
        if not report.ok:
            errors.append(f"fsck: {report.issues[0].detail}")
        return errors


class ServiceSubmit(Workload):
    """The daemon: ``POST /campaigns`` of 40 specs (36 already stored, 4
    new 5-step scenarios), polled every 10 ms until the job is done."""

    name = "service_submit"
    work_unit = "result delivered"
    request = "POST sent to job done"

    def __init__(self, seed, quick, tmp_root) -> None:
        super().__init__(seed, quick, tmp_root)
        self.stored = 8 if quick else 36
        self.entries = 16 if quick else 100
        self.scheduler: Optional[CampaignScheduler] = None
        self.server: Optional[MetricsServer] = None

    def prepare(self) -> None:
        self.fresh_store()
        history = real_history(self.seed, self.quick)
        self.specs = synthetic_specs(self.seed, self.entries)
        for spec in self.specs:
            self.store.put(spec, history, duration_seconds=0.25)
        self.scheduler = CampaignScheduler(self.store).start()
        self.server = MetricsServer(
            0, routes=self.scheduler.handle_route).start()
        self.submit(0, NullSpans())  # warm-up: HTTP stack, first job

    def submit(self, key: int, spans) -> Pass:
        # The daemon owns its store handle; a traced pass swaps in a
        # span-recording one over the same directory.
        self.scheduler.store = self.store_for(spans)
        new = [ScenarioSpec(name=f"new-{key}-{rule}", gradient_rule=rule,
                            num_steps=5, eval_every=5,
                            seed=self.seed * 100_000 + key)
               for rule in GARS]
        campaign = CampaignSpec(name=f"{self.name}-{key}",
                                scenarios=self.specs[:self.stored] + new)
        body = json.dumps(campaign.to_dict()).encode("utf-8")
        url = self.server.url
        started = time.perf_counter()
        with spans.span("campaign.scheduler.submit_to_done",
                        unit=campaign.name):
            with spans.span("campaign.scheduler.post"):
                request = urllib.request.Request(
                    f"{url}/campaigns", data=body, method="POST")
                with urllib.request.urlopen(request, timeout=30) as reply:
                    job = json.load(reply)
            with spans.span("campaign.scheduler.poll"):
                deadline = started + 60.0
                while job["state"] not in ("done", "failed"):
                    if time.perf_counter() > deadline:
                        break
                    time.sleep(0.01)
                    with urllib.request.urlopen(
                            f"{url}/campaigns/{job['id']}",
                            timeout=30) as reply:
                        job = json.load(reply)
        wall = time.perf_counter() - started
        errors = []
        expected = {"cached": self.stored, "ran": len(new)}
        if job["state"] != "done" or job["counts"] != expected:
            errors.append(f"{campaign.name}: state {job['state']}, counts "
                          f"{job['counts']}, expected {expected}")
        job_wall = ((job["finished_at"] - job["started_at"])
                    if job.get("finished_at") and job.get("started_at")
                    else 0.0)
        return Pass(work=self.stored + len(new), work_wall=wall,
                    latencies=[wall], attempted=self.stored + len(new),
                    failed=len(errors) * (self.stored + len(new)),
                    errors=errors, campaign_wall=job_wall)

    def one_pass(self, index, spans) -> Pass:
        return self.submit(self.key(index, spans) + 1, spans)

    def check_after(self) -> List[str]:
        report = ResultStore(self.root).fsck()
        return [] if report.ok else [f"fsck: {report.issues[0].detail}"]

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.scheduler is not None:
            self.scheduler.stop()
            self.scheduler = None
        super().close()


WORKLOADS = {cls.name: cls for cls in (
    SeqGrid, SeedSweep, WideGar, LiveThreads, LiveCluster,
    StoreRead, StoreWrite, ServiceSubmit)}
