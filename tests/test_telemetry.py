"""Live-telemetry layer: registry, exposition, HTTP endpoint, recorder.

Covers the metric primitives (counters/gauges/histograms with label sets),
the snapshot/merge path that ships node registries across process
boundaries, the Prometheus text round-trip, the ``/metrics``-``/status``-
``/healthz`` HTTP endpoint, the crash-report flight recorder, gzip trace
export, the monitor dashboard renderer, and the instrumentation hooks in
the campaign engine / runtimes (only active when a registry is installed),
and the one phase emit: a phase's trace span and its
``repro_step_phase_seconds`` observation are one measurement, under names
and labels every runtime kept.
"""

from __future__ import annotations

import gzip
import json
import os
import tempfile
import time
import urllib.error
import urllib.request

import pytest

from repro.campaign import ResultStore, run_campaign
from repro.campaign.spec import ScenarioSpec
from repro.batch import run_batched_scenarios
from repro.obs import (
    MetricsRegistry,
    MetricsServer,
    NullRegistry,
    Tracer,
    crash_report_path,
    get_registry,
    parse_prometheus_text,
    phase,
    read_jsonl,
    use_registry,
    use_tracer,
    write_crash_report,
)
from repro.obs.telemetry import METRIC_HELP
from repro.plotting import render_dashboard, scenarios_completed
from repro.runtime import run
from repro.runtime.cluster import cluster_available
from repro.testing import sequential_history

needs_sockets = pytest.mark.skipif(
    not cluster_available(), reason="host cannot bind sockets")


def tiny_spec(**overrides) -> ScenarioSpec:
    base = dict(name="tiny", num_workers=6, num_servers=3,
                declared_byzantine_workers=1, declared_byzantine_servers=0,
                num_steps=4, eval_every=2, dataset_size=300,
                max_eval_samples=64)
    base.update(overrides)
    return ScenarioSpec(**base)


# --------------------------------------------------------------------------- #
# Registry primitives
# --------------------------------------------------------------------------- #
class TestPrimitives:
    def test_counter_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        registry.inc("requests_total", route="a")
        registry.inc("requests_total", 2.5, route="a")
        registry.inc("requests_total", route="b")
        counter = registry.counter("requests_total")
        assert counter.value(route="a") == 3.5
        assert counter.value(route="b") == 1.0
        assert counter.value(route="missing") == 0.0

    def test_gauge_set_add_and_none_default(self):
        registry = MetricsRegistry()
        assert registry.gauge("depth").value() is None
        registry.set_gauge("depth", 4.0)
        registry.add_gauge("depth", -1.5)
        assert registry.gauge("depth").value() == 2.5

    def test_histogram_stats_and_timer(self):
        registry = MetricsRegistry()
        for value in (0.002, 0.002, 0.2):
            registry.observe("latency_seconds", value, op="put")
        stats = registry.histogram("latency_seconds").stats(op="put")
        assert stats["count"] == 3
        assert stats["sum"] == pytest.approx(0.204)
        with use_registry(registry), phase("seq.step.apply", runtime="seq"):
            time.sleep(0.001)
        timed = registry.histogram("repro_step_phase_seconds").stats(
            runtime="seq", phase="apply")
        assert timed["count"] == 1 and timed["sum"] > 0.0

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.inc("thing")
        with pytest.raises(TypeError):
            registry.set_gauge("thing", 1.0)

    def test_known_names_carry_catalogue_help(self):
        registry = MetricsRegistry()
        registry.inc("repro_campaign_scenarios_total", status="ran")
        text = registry.render_prometheus()
        assert ("# HELP repro_campaign_scenarios_total "
                + METRIC_HELP["repro_campaign_scenarios_total"]) in text


class TestActivation:
    def test_default_is_null_registry(self):
        registry = get_registry()
        assert isinstance(registry, NullRegistry)
        assert not registry.enabled
        # All hooks are no-ops.
        registry.inc("x")
        registry.observe("x", 1.0)
        assert registry.render_prometheus() == ""
        assert registry.snapshot() == {"metrics": {}}

    def test_use_registry_scopes_and_restores(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            assert get_registry() is registry
            get_registry().inc("scoped_total")
        assert isinstance(get_registry(), NullRegistry)
        assert registry.counter("scoped_total").value() == 1.0


# --------------------------------------------------------------------------- #
# Snapshot / merge / exposition
# --------------------------------------------------------------------------- #
class TestSnapshotMerge:
    def test_counters_and_buckets_add_gauges_overwrite(self):
        source = MetricsRegistry()
        source.inc("ops_total", 2.0, op="put")
        source.set_gauge("entries", 7.0)
        source.observe("op_seconds", 0.004, op="put")
        target = MetricsRegistry()
        target.inc("ops_total", 1.0, op="put")
        target.set_gauge("entries", 3.0)
        snapshot = source.snapshot()
        target.merge(snapshot)
        target.merge(snapshot)
        assert target.counter("ops_total").value(op="put") == 5.0
        assert target.gauge("entries").value() == 7.0
        assert target.histogram("op_seconds").stats(op="put")["count"] == 2

    def test_extra_labels_stamp_the_origin(self):
        node = MetricsRegistry()
        node.inc("frames_total", 4.0, direction="out")
        supervisor = MetricsRegistry()
        supervisor.merge(node.snapshot(), extra_labels={"node": "worker/0"})
        counter = supervisor.counter("frames_total")
        assert counter.value(direction="out", node="worker/0") == 4.0
        assert counter.value(direction="out") == 0.0

    def test_snapshot_is_json_serialisable(self):
        registry = MetricsRegistry()
        registry.inc("a_total", label="v")
        registry.observe("b_seconds", 0.5)
        restored = json.loads(json.dumps(registry.snapshot()))
        other = MetricsRegistry()
        other.merge(restored)
        assert other.counter("a_total").value(label="v") == 1.0


class TestPrometheusRoundTrip:
    def test_render_parse_round_trip(self):
        registry = MetricsRegistry()
        registry.describe("req_total", "requests")
        registry.inc("req_total", 3.0, code="200", path='with"quote')
        registry.set_gauge("up", 1.0)
        registry.observe("dur_seconds", 0.003)
        registry.observe("dur_seconds", 40.0)
        families = parse_prometheus_text(registry.render_prometheus())
        assert families["req_total"]["type"] == "counter"
        assert families["req_total"]["help"] == "requests"
        (sample,) = families["req_total"]["samples"]
        assert sample["labels"] == {"code": "200", "path": 'with"quote'}
        assert sample["value"] == 3.0
        assert families["up"]["type"] == "gauge"
        histogram = families["dur_seconds"]
        assert histogram["type"] == "histogram"
        names = {s["name"] for s in histogram["samples"]}
        assert names == {"dur_seconds_bucket", "dur_seconds_sum",
                         "dur_seconds_count"}
        inf_bucket = [s for s in histogram["samples"]
                      if s["name"] == "dur_seconds_bucket"
                      and s["labels"]["le"] == "+Inf"]
        assert inf_bucket[0]["value"] == 2.0

    def test_malformed_text_raises(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("what is this line")


# --------------------------------------------------------------------------- #
# HTTP endpoint
# --------------------------------------------------------------------------- #
@needs_sockets
class TestMetricsServer:
    def _get(self, url):
        with urllib.request.urlopen(url, timeout=5) as reply:
            return reply.status, reply.headers.get("Content-Type"), \
                reply.read().decode("utf-8")

    def test_serves_metrics_status_healthz(self):
        registry = MetricsRegistry()
        registry.inc("repro_campaign_scenarios_total", 2.0, status="ran")
        with MetricsServer(0, registry=registry,
                           status=lambda: {"completed": 2}) as server:
            status, content_type, body = self._get(server.url + "/metrics")
            assert status == 200
            assert content_type.startswith("text/plain")
            families = parse_prometheus_text(body)
            assert scenarios_completed(families) == 2.0

            status, _, body = self._get(server.url + "/healthz")
            assert (status, body) == (200, "ok\n")

            status, content_type, body = self._get(server.url + "/status")
            assert status == 200
            assert "json" in content_type
            assert json.loads(body) == {"completed": 2}

            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._get(server.url + "/nope")
            assert excinfo.value.code == 404


# --------------------------------------------------------------------------- #
# Flight recorder
# --------------------------------------------------------------------------- #
class TestCrashReports:
    def test_report_lands_beside_the_store(self, tmp_path):
        assert crash_report_path("run", store_root=str(tmp_path)) == \
            str(tmp_path / "run.crash.json")

    def test_report_with_no_location_goes_to_the_temp_directory(
            self, tmp_path, monkeypatch):
        # the last resort is never the working directory: a failing
        # ``sweep`` started from a checkout must not litter it
        (tmp_path / "tmp").mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        monkeypatch.chdir(tmp_path)
        assert crash_report_path("run") == \
            str(tmp_path / "tmp" / "run.crash.json")
        path = write_crash_report("run", "interrupt", tracer=Tracer(),
                                  registry=MetricsRegistry())
        assert path == str(tmp_path / "tmp" / "run.crash.json")
        assert os.listdir(tmp_path) == ["tmp"]

    def test_report_carries_trace_and_metrics(self, tmp_path):
        tracer = Tracer()
        tracer.event("boom", step=3)
        registry = MetricsRegistry()
        registry.inc("repro_campaign_scenarios_total", status="failed")
        path = write_crash_report(
            "my run", "scenario-failure", store_root=str(tmp_path),
            tracer=tracer, registry=registry, context={"failed": ["s1"]})
        report = json.loads((tmp_path / "my-run.crash.json").read_text())
        assert path == str(tmp_path / "my-run.crash.json")
        assert report["kind"] == "repro.crash_report"
        assert report["reason"] == "scenario-failure"
        assert report["context"] == {"failed": ["s1"]}
        assert report["trace"]["enabled"] is True
        assert any(record["name"] == "boom"
                   for record in report["trace"]["events"])
        assert "repro_campaign_scenarios_total" in report["metrics"]["metrics"]


# --------------------------------------------------------------------------- #
# Gzip trace export
# --------------------------------------------------------------------------- #
class TestGzipTraces:
    def _tracer(self):
        tracer = Tracer()
        tracer.event("alpha", step=1)
        tracer.event("beta", step=2)
        return tracer

    def test_gz_suffix_compresses_and_reads_back(self, tmp_path):
        path = tmp_path / "trace.jsonl.gz"
        written = self._tracer().export(str(path))
        assert written == 2
        with open(path, "rb") as handle:
            assert handle.read(2) == b"\x1f\x8b"  # gzip magic
        records = list(read_jsonl(str(path)))
        assert [record.name for record in records] == ["alpha", "beta"]

    def test_explicit_compress_flag_overrides_suffix(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self._tracer().export(str(path), compress=True)
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            assert len(handle.read().splitlines()) == 2
        assert [r.name for r in read_jsonl(str(path))] == ["alpha", "beta"]

    def test_plain_export_still_plain(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self._tracer().export(str(path))
        first = path.read_text().splitlines()[0]
        assert json.loads(first)["name"] == "alpha"

    def test_cli_trace_reads_gz(self, tmp_path, capsys):
        from repro import cli

        path = tmp_path / "trace.jsonl.gz"
        self._tracer().export(str(path))
        assert cli.main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 record(s)" in out


# --------------------------------------------------------------------------- #
# Monitor dashboard rendering
# --------------------------------------------------------------------------- #
class TestDashboard:
    def _families(self):
        registry = MetricsRegistry()
        registry.inc("repro_campaign_scenarios_total", 3.0, status="ran")
        registry.inc("repro_campaign_scenarios_total", 1.0, status="failed")
        registry.inc("repro_campaign_cache_total", 2.0, result="hit")
        registry.observe("repro_step_phase_seconds", 0.004,
                         runtime="seq", phase="compute")
        registry.set_gauge("repro_cluster_node_up", 1.0, node="ps/0")
        registry.set_gauge("repro_cluster_node_up", 0.0, node="worker/1")
        registry.inc("repro_cluster_respawns_total", 2.0, node="worker/1")
        registry.observe("repro_cluster_probe_rtt_seconds", 0.02,
                         node="ps/0")
        registry.inc("repro_gar_decisions_total", 5.0, rule="multi_krum")
        registry.set_gauge("repro_gar_attacker_acceptance", 0.25,
                           rule="multi_krum")
        return parse_prometheus_text(registry.render_prometheus())

    def test_scenarios_completed_sums_statuses(self):
        assert scenarios_completed(self._families()) == 4.0

    def test_dashboard_sections_render(self):
        status = {"command": "sweep", "campaign": "nightly", "total": 8,
                  "completed": 4,
                  "counts": {"ran": 3, "cached": 0, "failed": 1},
                  "elapsed_seconds": 12.5}
        frame = render_dashboard(self._families(), status,
                                 throughput=[0.0, 0.5, 1.0])
        assert "repro monitor — sweep 'nightly'" in frame
        assert "4/8" in frame
        assert "failed=1" in frame
        assert "scenario/s" in frame
        assert "compute" in frame
        assert "worker/1" in frame and "NO" in frame
        assert "multi_krum" in frame and "0.250" in frame

    def test_empty_dashboard_is_calm(self):
        frame = render_dashboard({}, {})
        assert "(no samples yet)" in frame


# --------------------------------------------------------------------------- #
# Instrumentation hooks (campaign engine, store, runtimes)
# --------------------------------------------------------------------------- #
class TestInstrumentation:
    def test_sequential_run_populates_phase_histograms(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            run(tiny_spec())
        histogram = registry.histogram("repro_step_phase_seconds")
        for phase in ("broadcast", "compute", "gather", "aggregate", "apply"):
            stats = histogram.stats(runtime="batch", phase=phase)
            assert stats is not None and stats["count"] == 4

    def test_gar_metrics_require_decision_records(self):
        spec = tiny_spec(worker_attack="random_gradient")
        registry = MetricsRegistry()
        with use_registry(registry), \
                use_tracer(Tracer(record_decisions=True)):
            run(spec)
        decisions = registry.counter("repro_gar_decisions_total")
        assert decisions.value(rule="multi_krum") > 0
        acceptance = registry.gauge("repro_gar_attacker_acceptance") \
            .value(rule="multi_krum")
        assert acceptance is not None and 0.0 <= acceptance <= 1.0

    def test_campaign_counters_and_cache(self, tmp_path):
        scenarios = [tiny_spec(name=f"c{seed}", seed=seed)
                     for seed in (0, 1)]
        store = ResultStore(str(tmp_path / "store"))
        registry = MetricsRegistry()
        with use_registry(registry):
            run_campaign(scenarios, name="first", store=store)
            second = run_campaign(scenarios, name="second", store=store)
            for outcome in second.outcomes:
                outcome.history.records  # a cached history loads on touch
        counter = registry.counter("repro_campaign_scenarios_total")
        assert counter.value(status="ran") == 2.0
        assert counter.value(status="cached") == 2.0
        cache = registry.counter("repro_campaign_cache_total")
        assert cache.value(result="miss") == 2.0
        assert cache.value(result="hit") == 2.0
        assert registry.gauge("repro_campaign_scenarios_pending").value() == 0
        # Store ops flowed through the instrumented put/get.
        ops = registry.counter("repro_store_ops_total")
        assert ops.value(op="put") == 2.0
        assert ops.value(op="get") >= 2.0
        # Worker-side metrics crossed the process boundary into the parent.
        scenario_seconds = registry.histogram(
            "repro_campaign_scenario_seconds")
        assert scenario_seconds.stats(batched="false")["count"] == 2

    def test_batched_run_records_lane_chunks(self):
        specs = [ScenarioSpec(name=f"s{seed}", seed=seed, num_steps=4,
                              eval_every=2, dataset_size=300,
                              max_eval_samples=64) for seed in (0, 1)]
        registry = MetricsRegistry()
        with use_registry(registry):
            run_batched_scenarios(specs)
        stats = registry.histogram("repro_step_phase_seconds") \
            .stats(runtime="batch", phase="compute")
        assert stats is not None and stats["count"] == 4


# --------------------------------------------------------------------------- #
# One phase emit: the histogram is the spans, under unchanged names
# --------------------------------------------------------------------------- #
PHASES = ("broadcast", "compute", "gather", "aggregate", "apply")


def with_both_sinks(execute):
    tracer, registry = Tracer(), MetricsRegistry()
    with use_tracer(tracer), use_registry(registry):
        execute()
    return tracer, registry


def phase_series(registry):
    return {tuple(value for _, value in key) for key in
            registry.histogram("repro_step_phase_seconds").series}


class TestSpanHistogramAgreement:
    @pytest.mark.parametrize("runtime, prefix, execute", [
        ("seq", "seq.step.", lambda: sequential_history(tiny_spec())),
        ("batch", "batch.step.", lambda: run_batched_scenarios(
            [tiny_spec(name=f"agree{seed}", seed=seed) for seed in (0, 1)])),
    ], ids=["seq", "batch"])
    def test_histogram_counts_and_sums_the_spans(self, runtime, prefix,
                                                  execute):
        tracer, registry = with_both_sinks(execute)
        spans = [event for event in tracer.events() if event.kind == "span"]
        histogram = registry.histogram("repro_step_phase_seconds")
        assert {(dict(key)["runtime"], dict(key)["phase"])
                for key in histogram.series} \
            == {(runtime, name) for name in PHASES}
        for key, entry in histogram.series.items():
            durations = [event.dur for event in spans
                         if event.name == prefix + dict(key)["phase"]]
            total = 0.0
            for duration in durations:  # emission order, as observed
                total += duration
            assert entry.count == len(durations) > 0
            assert entry.sum == total


def parity_spec(**overrides) -> ScenarioSpec:
    base = dict(name="parity", num_workers=4, num_servers=3,
                declared_byzantine_workers=0, declared_byzantine_servers=0,
                model_quorum=3, gradient_quorum=4, gradient_rule="median",
                model_rule="median", num_steps=2, eval_every=2,
                dataset_size=200, max_eval_samples=32, seed=3)
    base.update(overrides)
    return ScenarioSpec(**base)


#: the phase span names and ``repro_step_phase_seconds`` series of a 2-step
#: run per runtime — ``bench/`` reads these prefixes, so they are literals
PARITY = {
    "seq": ({"seq.step.broadcast", "seq.step.compute", "seq.step.gather",
             "seq.step.aggregate", "seq.step.apply"},
            {("apply", "seq"), ("aggregate", "seq"), ("broadcast", "seq"),
             ("compute", "seq"), ("gather", "seq")}),
    "batch": ({"batch.step.broadcast", "batch.step.compute",
               "batch.step.gather", "batch.step.aggregate",
               "batch.step.apply"},
              {("apply", "batch"), ("aggregate", "batch"),
               ("broadcast", "batch"), ("compute", "batch"),
               ("gather", "batch")}),
    "threads": ({"thr.worker.gather", "thr.worker.compute",
                 "thr.server.broadcast", "thr.server.gather",
                 "thr.server.aggregate", "thr.server.apply"},
                {("apply", "threads"), ("aggregate", "threads"),
                 ("broadcast", "threads"), ("compute", "threads"),
                 ("gather", "threads")}),
}
CLUSTER_SPANS = {"clu.worker.gather", "clu.worker.compute",
                 "clu.server.broadcast", "clu.server.gather",
                 "clu.server.aggregate", "clu.server.apply"}
CLUSTER_SERIES = {
    (node, phase, "cluster")
    for nodes, phases in ((("ps/0", "ps/1", "ps/2"),
                           ("broadcast", "gather", "aggregate", "apply")),
                          (("worker/0", "worker/1", "worker/2", "worker/3"),
                           ("gather", "compute")))
    for node in nodes for phase in phases}


class TestPhaseNameParity:
    @pytest.mark.parametrize("runtime, execute", [
        ("seq", lambda: sequential_history(parity_spec())),
        ("batch", lambda: run(parity_spec())),
        ("threads", lambda: run(parity_spec(trainer="guanyu_threaded",
                                            quorum_timeout=30.0))),
    ], ids=["seq", "batch", "threads"])
    def test_span_names_and_series_are_unchanged(self, runtime, execute):
        tracer, registry = with_both_sinks(execute)
        spans, series = PARITY[runtime]
        assert {event.name for event in tracer.events()
                if event.kind == "span"} == spans
        assert phase_series(registry) == series


@needs_sockets
@pytest.mark.timeout(180)
class TestClusterTelemetry:
    def test_node_registries_merge_supervisor_side(self):
        from repro.runtime.cluster import Supervisor

        spec = ScenarioSpec(name="cluster-tel", trainer="guanyu_threaded",
                            runtime="cluster", num_workers=4, num_servers=3,
                            declared_byzantine_workers=0,
                            declared_byzantine_servers=0,
                            model_quorum=3, gradient_quorum=4,
                            gradient_rule="median", model_rule="median",
                            num_steps=2, seed=9, quorum_timeout=30.0)
        tracer, registry = Tracer(), MetricsRegistry()
        with use_tracer(tracer), use_registry(registry):
            Supervisor(spec).run()
        # The phase spans and series every node shipped, under the names
        # and labels the other runtimes' parity test pins.
        assert {event.name for event in tracer.events()
                if event.kind == "span"} == CLUSTER_SPANS
        assert phase_series(registry) == CLUSTER_SERIES
        # Supervisor-side health gauges: every node came up, one
        # incarnation each, no respawns.
        up = registry.gauge("repro_cluster_node_up")
        incarnations = registry.gauge("repro_cluster_node_incarnations")
        for node in ("ps/0", "ps/1", "ps/2",
                     "worker/0", "worker/1", "worker/2", "worker/3"):
            assert up.value(node=node) == 1.0
            assert incarnations.value(node=node) == 1.0
        # Supervisor-side protocol counters: frames flowed both ways.
        frames = registry.counter("repro_cluster_frames_total")
        assert frames.value(direction="in", kind="done") >= 7.0
        assert frames.value(direction="out", kind="start") == 7.0
        assert registry.counter("repro_cluster_bytes_total") \
            .value(direction="in") > 0.0
        # Node-local registries travelled over the 'metrics' frame and
        # merged with the shipping node's id stamped on every series.
        histogram = registry.histogram("repro_step_phase_seconds")
        compute = histogram.stats(runtime="cluster", phase="compute",
                                  node="worker/0")
        assert compute is not None and compute["count"] == 2
        aggregate = histogram.stats(runtime="cluster", phase="aggregate",
                                    node="ps/0")
        assert aggregate is not None and aggregate["count"] == 2
        # Probe RTTs only appear when the supervisor had time to ping, so
        # just assert the metric is well-formed if present.
        rtt = registry.histogram("repro_cluster_probe_rtt_seconds")
        for entry in rtt.snapshot()["series"]:
            assert entry["sum"] >= 0.0


@needs_sockets
class TestTelemetryCli:
    def test_sweep_metrics_port_and_snapshot(self, tmp_path, capsys):
        from repro import cli

        snapshot_path = tmp_path / "metrics.json"
        code = cli.main(["--steps", "2", "sweep", "--gars", "mean",
                         "--seeds", "0", "--processes", "1",
                         "--metrics-port", "0",
                         "--metrics-snapshot", str(snapshot_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "metrics endpoint: http://127.0.0.1:" in captured.err
        snapshot = json.loads(snapshot_path.read_text())
        totals = snapshot["metrics"]["repro_campaign_scenarios_total"]
        assert sum(entry["value"] for entry in totals["series"]) == 1.0

    def test_monitor_renders_one_frame(self, capsys):
        from repro import cli

        registry = MetricsRegistry()
        registry.inc("repro_campaign_scenarios_total", status="ran")
        status = {"command": "sweep", "campaign": "watched", "total": 2,
                  "completed": 1, "counts": {"ran": 1}}
        with MetricsServer(0, registry=registry,
                           status=lambda: status) as server:
            code = cli.main(["monitor", "--url", server.url,
                             "--iterations", "1", "--interval", "0.1",
                             "--no-clear"])
        out = capsys.readouterr().out
        assert code == 0
        assert "repro monitor — sweep 'watched'" in out
        assert "1/2" in out

    def test_monitor_without_target_exits_2(self, capsys):
        from repro import cli

        assert cli.main(["monitor"]) == 2
        assert "needs --port or --url" in capsys.readouterr().err
