"""Tests for the ASCII plotting and table rendering utilities."""

import numpy as np
import pytest

from repro.obs.history import StepRecord, TrainingHistory
from repro.plotting import (
    AsciiChart,
    format_table,
    histories_summary_table,
    render_histories,
    sparkline,
)


def _history(name, accuracies):
    history = TrainingHistory(label=name)
    for step, accuracy in enumerate(accuracies):
        history.add(StepRecord(step=step, simulated_time=float(step + 1),
                               test_accuracy=accuracy))
    return history


class TestSparkline:
    def test_length_bounded_by_width(self):
        line = sparkline(list(np.linspace(0, 1, 200)), width=40)
        assert 0 < len(line) <= 41

    def test_monotone_series_ends_high(self):
        line = sparkline([0.0, 0.25, 0.5, 0.75, 1.0])
        assert line[0] == " "
        assert line[-1] == "@"

    def test_empty_and_nan_series(self):
        assert sparkline([]) == ""
        assert sparkline([float("nan")]) == ""


class TestAsciiChart:
    def test_render_contains_markers_and_legend(self):
        chart = AsciiChart(width=40, height=10, x_label="steps", y_label="acc")
        chart.add_series("a", [0, 1, 2, 3], [0.1, 0.4, 0.6, 0.9])
        chart.add_series("b", [0, 1, 2, 3], [0.2, 0.3, 0.35, 0.4])
        rendered = chart.render()
        assert "o=a" in rendered
        assert "x=b" in rendered
        assert "o" in rendered and "x" in rendered

    def test_empty_chart(self):
        assert AsciiChart().render() == "(empty chart)"

    def test_mismatched_series_lengths_raise(self):
        chart = AsciiChart()
        with pytest.raises(ValueError):
            chart.add_series("bad", [0, 1], [0.5])

    def test_too_small_chart_rejected(self):
        with pytest.raises(ValueError):
            AsciiChart(width=5, height=2)

    def test_nan_values_dropped(self):
        chart = AsciiChart(width=30, height=8)
        chart.add_series("a", [0, 1, 2], [0.5, float("nan"), 0.7])
        assert "o" in chart.render()

    def test_constant_series_does_not_divide_by_zero(self):
        chart = AsciiChart(width=30, height=8)
        chart.add_series("flat", [0, 1, 2], [0.5, 0.5, 0.5])
        assert isinstance(chart.render(), str)


class TestRenderHistories:
    def test_steps_and_time_axes(self):
        histories = {"sys_a": _history("sys_a", [0.2, 0.5, 0.8]),
                     "sys_b": _history("sys_b", [0.1, 0.3, 0.6])}
        by_steps = render_histories(histories, x_axis="steps")
        by_time = render_histories(histories, x_axis="time")
        assert "model updates" in by_steps
        assert "simulated s" in by_time
        assert "sys_a" in by_steps and "sys_b" in by_steps

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            render_histories({"a": _history("a", [0.5])}, x_axis="epochs")


class TestTables:
    def test_format_table_alignment_and_missing_cells(self):
        rows = [{"name": "vanilla", "acc": 0.98},
                {"name": "guanyu", "acc": 0.97, "extra": 1}]
        table = format_table(rows, columns=["name", "acc", "extra"])
        lines = table.splitlines()
        assert lines[0].startswith("name")
        assert "0.980" in table
        assert "-" in lines[2]  # missing 'extra' for the first row

    def test_format_table_empty(self):
        assert format_table([]) == "(empty table)"

    def test_histories_summary_table_contains_throughput(self):
        histories = {"sys": _history("sys", [0.2, 0.9])}
        table = histories_summary_table(histories, target_accuracy=0.5)
        assert "updates_per_s" in table
        assert "time_to_target" in table
        assert "sys" in table


class TestPhaseBreakdown:
    @staticmethod
    def _span(name, dur, source=None):
        from repro.obs.tracer import TraceEvent

        return TraceEvent(name=name, kind="span", ts=0.0, dur=dur,
                          source=source)

    @staticmethod
    def _summary_event(spans, source=None):
        from repro.obs.tracer import TraceEvent

        return TraceEvent(name="cluster.node", kind="event", source=source,
                          attrs={"trace_summary": {"spans": spans}})

    def test_folds_pooled_summaries_without_raw_spans(self):
        from repro.plotting.timeline import phase_breakdown_rows

        rows = phase_breakdown_rows([
            self._summary_event({"phase.a": {"count": 2, "total_s": 1.0}})])
        (row,) = rows
        assert row["phase"] == "phase.a"
        assert row["count"] == 2

    def test_merged_multi_source_trace_is_not_double_counted(self):
        from repro.plotting.timeline import phase_breakdown_rows

        # a cluster trace carries each node's raw spans AND a per-node
        # summary event, all tagged with the same source: the summary must
        # be skipped, not added on top
        records = [
            self._span("clu.worker.compute", 1.0, source="worker/0"),
            self._span("clu.worker.compute", 1.0, source="worker/1"),
            self._summary_event({"clu.worker.compute":
                                 {"count": 1, "total_s": 1.0}},
                                source="worker/0"),
            self._summary_event({"clu.worker.compute":
                                 {"count": 1, "total_s": 1.0}},
                                source="worker/1"),
        ]
        (row,) = phase_breakdown_rows(records)
        assert row["count"] == 2
        assert row["total_s"] == pytest.approx(2.0)

    def test_summary_from_an_unseen_source_still_folds(self):
        from repro.plotting.timeline import phase_breakdown_rows

        # a process whose raw spans were dropped (ring-buffer overflow)
        # still contributes through its summary
        records = [
            self._span("clu.worker.compute", 1.0, source="worker/0"),
            self._summary_event({"clu.worker.compute":
                                 {"count": 3, "total_s": 3.0}},
                                source="worker/7"),
        ]
        (row,) = phase_breakdown_rows(records)
        assert row["count"] == 4
        assert row["total_s"] == pytest.approx(4.0)
