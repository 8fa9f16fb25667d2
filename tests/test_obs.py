"""Tests for the observability layer: tracer, phase emit, ring buffer,
JSONL, logging."""

import io
import json
import logging
import threading

import pytest

from repro.obs import (
    MetricsRegistry,
    NullTracer,
    TraceEvent,
    Tracer,
    configure_logging,
    get_tracer,
    phase,
    read_jsonl,
    set_tracer,
    use_registry,
    use_tracer,
)
from repro.obs import telemetry
from repro.obs.logging import JsonLogFormatter


class TestTracerRecording:
    def test_span_context_manager_records_duration(self):
        tracer = Tracer()
        with use_tracer(tracer), phase("phase.one", runtime="seq", step=3,
                                       node="server-0", replicas=4):
            pass
        (record,) = tracer.events()
        assert record.kind == "span"
        assert record.name == "phase.one"
        assert record.step == 3
        assert record.node == "server-0"
        assert record.attrs == {"replicas": 4}
        assert record.dur is not None and record.dur >= 0.0

    def test_event_and_counter(self):
        tracer = Tracer()
        tracer.event("campaign.scenario", scenario="s0", status="ran")
        tracer.count("campaign.cache_hit")
        tracer.count("campaign.cache_hit")
        tracer.count("campaign.scenario_seconds", 0.5)
        (record,) = tracer.events()
        assert record.kind == "event"
        assert record.attrs["scenario"] == "s0"
        assert tracer.counters() == {"campaign.cache_hit": 2,
                                     "campaign.scenario_seconds": 0.5}

    def test_disabled_tracer_records_nothing(self):
        # the null tracer is the one off switch; a Tracer always records
        tracer = NullTracer()
        with use_tracer(tracer), phase("phase", runtime="seq"):
            pass
        tracer.event("event")
        tracer.count("counter")
        assert tracer.events() == []
        assert tracer.counters() == {}
        assert Tracer.enabled and not NullTracer.enabled
        with pytest.raises(TypeError):
            Tracer(enabled=False)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestPhase:
    def test_no_sink_is_a_shared_no_op_that_reads_no_clock(self, monkeypatch):
        def clock():
            raise AssertionError("the clock was read with both sinks off")

        monkeypatch.setattr(telemetry.time, "perf_counter", clock)
        first = phase("seq.step.compute", runtime="seq", step=0)
        assert phase("batch.step.apply", runtime="batch") is first
        with first:
            pass

    def test_one_duration_reaches_both_sinks(self):
        tracer, registry = Tracer(), MetricsRegistry()
        with use_tracer(tracer), use_registry(registry):
            with phase("thr.server.aggregate", runtime="threads", step=2,
                       node="ps/0"):
                pass
        (span,) = tracer.events()
        stats = registry.histogram("repro_step_phase_seconds").stats(
            runtime="threads", phase="aggregate")
        assert (span.name, span.step, span.node) == \
            ("thr.server.aggregate", 2, "ps/0")
        assert stats["count"] == 1 and stats["sum"] == span.dur

    def test_either_sink_alone(self):
        registry = MetricsRegistry()
        with use_registry(registry), phase("seq.step.gather", runtime="seq"):
            pass
        assert registry.histogram("repro_step_phase_seconds").stats(
            runtime="seq", phase="gather")["count"] == 1
        tracer = Tracer()
        with use_tracer(tracer), phase("seq.step.gather", runtime="seq"):
            pass
        assert [event.name for event in tracer.events()] == ["seq.step.gather"]

    def test_a_failing_phase_is_still_recorded(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError), use_tracer(tracer):
            with phase("batch.step.aggregate", runtime="batch"):
                raise RuntimeError("quorum")
        assert [event.name for event in tracer.events()] == \
            ["batch.step.aggregate"]


class TestRingBuffer:
    def test_truncation_keeps_newest_and_counts_dropped(self):
        tracer = Tracer(capacity=5)
        for index in range(12):
            tracer.event(f"e{index}")
        records = tracer.events()
        assert [record.name for record in records] == \
            [f"e{index}" for index in range(7, 12)]
        assert tracer.dropped == 7
        assert tracer.summary()["dropped"] == 7

    def test_no_drop_below_capacity(self):
        tracer = Tracer(capacity=10)
        for index in range(10):
            tracer.event(f"e{index}")
        assert tracer.dropped == 0

    def test_extend_respects_capacity(self):
        source = Tracer()
        for index in range(8):
            source.event(f"s{index}")
        sink = Tracer(capacity=4)
        sink.extend(source.events())
        assert len(sink.events()) == 4
        assert sink.dropped == 4


class TestJsonl:
    def test_round_trip_through_a_file(self, tmp_path):
        tracer = Tracer()
        with use_tracer(tracer), phase("phase.a", runtime="seq", step=1):
            pass
        tracer.event("fault", node="worker-2", ids=["worker-2"])
        tracer.count("hits", 3)
        path = str(tmp_path / "trace.jsonl")
        written = tracer.export(path)
        assert written == 3

        records = read_jsonl(path)
        assert [record.kind for record in records] == \
            ["span", "event", "counter"]
        span, event, counter = records
        assert span.name == "phase.a" and span.step == 1
        assert event.attrs == {"ids": ["worker-2"]}
        assert counter.attrs == {"value": 3}

    def test_round_trip_through_a_stream(self):
        tracer = Tracer()
        tracer.event("e", k="v")
        buffer = io.StringIO()
        assert tracer.export(buffer) == 1
        (record,) = read_jsonl(io.StringIO(buffer.getvalue()))
        assert record.name == "e" and record.attrs == {"k": "v"}

    def test_lines_are_compact_single_objects(self, tmp_path):
        tracer = Tracer()
        tracer.event("e")
        path = str(tmp_path / "trace.jsonl")
        tracer.export(path)
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle.read().splitlines() if line]
        assert len(lines) == 1
        payload = json.loads(lines[0])
        # Empty optional fields are dropped from the serialised form.
        assert "dur" not in payload and "node" not in payload

    def test_empty_tracer_writes_empty_file(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        assert Tracer().export(path) == 0
        assert read_jsonl(path) == []


class TestSummary:
    def test_aggregates_spans_by_name(self):
        tracer = Tracer()
        tracer.extend([TraceEvent("a", kind="span", ts=0.0, dur=1.0),
                       TraceEvent("a", kind="span", ts=2.0, dur=0.5),
                       TraceEvent("b", kind="span", ts=0.0, dur=0.25)])
        tracer.event("x")
        summary = tracer.summary()
        assert summary["spans"]["a"]["count"] == 2
        assert summary["spans"]["a"]["total_s"] == pytest.approx(1.5)
        assert summary["spans"]["a"]["mean_s"] == pytest.approx(0.75)
        assert summary["spans"]["b"]["count"] == 1
        assert summary["events"] == 1


class TestThreadSafety:
    def test_concurrent_appends_lose_nothing(self):
        tracer = Tracer(capacity=100_000)
        per_thread = 500

        def emit(tag):
            for index in range(per_thread):
                tracer.event(f"{tag}.{index}")
                tracer.count("total")

        threads = [threading.Thread(target=emit, args=(t,)) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(tracer.events()) == 8 * per_thread
        assert tracer.counters()["total"] == 8 * per_thread
        assert tracer.dropped == 0


class TestActiveTracer:
    def test_default_is_a_null_tracer(self):
        assert isinstance(get_tracer(), NullTracer)
        assert not get_tracer().enabled

    def test_use_tracer_restores_previous(self):
        tracer = Tracer()
        before = get_tracer()
        with use_tracer(tracer):
            assert get_tracer() is tracer
        assert get_tracer() is before

    def test_use_tracer_restores_on_exception(self):
        before = get_tracer()
        with pytest.raises(RuntimeError):
            with use_tracer(Tracer()):
                raise RuntimeError("boom")
        assert get_tracer() is before

    def test_set_tracer_none_resets_to_null(self):
        set_tracer(Tracer())
        try:
            assert get_tracer().enabled
        finally:
            set_tracer(None)
        assert isinstance(get_tracer(), NullTracer)

    def test_null_tracer_interface_is_noop(self, tmp_path):
        tracer = NullTracer()
        tracer.event("x")
        tracer.count("x")
        assert tracer.events() == []
        assert tracer.counters() == {}
        assert tracer.summary()["spans"] == {}
        assert tracer.export(str(tmp_path / "none.jsonl")) == 0


class TestTraceEvent:
    def test_to_from_dict_round_trip(self):
        event = TraceEvent(name="n", kind="span", ts=1.5, dur=0.5,
                           step=2, node="server-1", attrs={"k": 1})
        assert TraceEvent.from_dict(event.to_dict()) == event

    def test_minimal_event_round_trip(self):
        event = TraceEvent(name="n")
        payload = event.to_dict()
        assert payload == {"name": "n", "kind": "event", "ts": 0.0}
        assert TraceEvent.from_dict(payload) == event

    def test_source_round_trips_and_is_absent_when_none(self):
        # multi-process (cluster) traces tag each record with its origin
        # process; single-process records must serialise exactly as before
        tagged = TraceEvent(name="n", kind="span", ts=1.0, dur=0.1,
                            node="worker/0", source="worker/0")
        payload = tagged.to_dict()
        assert payload["source"] == "worker/0"
        assert TraceEvent.from_dict(payload) == tagged
        assert "source" not in TraceEvent(name="n").to_dict()

    def test_source_survives_jsonl(self, tmp_path):
        tracer = Tracer()
        tracer.extend([TraceEvent(name="clu.step", kind="span", ts=0.0,
                                  dur=0.5, source="ps/1")])
        path = tmp_path / "trace.jsonl"
        tracer.export(str(path))
        (record,) = list(read_jsonl(str(path)))
        assert record.source == "ps/1"


class TestLogging:
    def test_configures_level_and_single_handler(self):
        logger = configure_logging("debug", stream=io.StringIO())
        assert logger.level == logging.DEBUG
        # Idempotent: re-configuring replaces the CLI handler.
        logger = configure_logging("error", stream=io.StringIO())
        cli_handlers = [handler for handler in logger.handlers
                        if getattr(handler, "_repro_cli_handler", False)]
        assert len(cli_handlers) == 1
        assert logger.level == logging.ERROR

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            configure_logging("loud")

    def test_json_mode_emits_parseable_lines(self):
        stream = io.StringIO()
        logger = configure_logging("info", json_mode=True, stream=stream)
        logger.info("hello %s", "world")
        payload = json.loads(stream.getvalue().strip())
        assert payload["message"] == "hello world"
        assert payload["level"] == "info"
        assert payload["logger"] == "repro"

    def test_json_formatter_includes_exceptions(self):
        formatter = JsonLogFormatter()
        try:
            raise ValueError("bad")
        except ValueError:
            import sys
            record = logging.LogRecord("repro.test", logging.ERROR, __file__,
                                       1, "failed", None, sys.exc_info())
        payload = json.loads(formatter.format(record))
        assert "ValueError: bad" in payload["exception"]
