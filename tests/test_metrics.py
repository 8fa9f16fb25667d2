"""Tests for metrics: accuracy, throughput, and training histories."""

import dataclasses
import json

import numpy as np
import pytest

from repro.data import make_blobs_dataset
from repro.metrics import (
    StepRecord,
    TrainingHistory,
    evaluate_accuracy,
    evaluate_loss,
    overhead_percent,
    throughput_updates_per_second,
    time_to_accuracy,
)
from repro.metrics.throughput import steps_to_accuracy
from repro.nn import build_model
from repro.runtime.cost import GRID5000_LIKE, INSTANT


class TestAccuracyAndLoss:
    def test_untrained_model_near_chance(self):
        data = make_blobs_dataset(num_samples=300, num_classes=3, num_features=4, seed=0)
        model = build_model("softmax", in_features=4, num_classes=3)
        accuracy = evaluate_accuracy(model, data)
        assert 0.0 <= accuracy <= 1.0

    def test_perfectly_biased_model_hits_class_frequency(self):
        data = make_blobs_dataset(num_samples=200, num_classes=2, num_features=2, seed=0)
        model = build_model("softmax", in_features=2, num_classes=2)
        # Force the model to always predict class 0 by a huge bias.
        flat = model.get_flat_parameters()
        flat[:] = 0.0
        model.set_flat_parameters(flat)
        model.linear.bias.data[...] = np.array([100.0, -100.0])
        accuracy = evaluate_accuracy(model, data)
        expected = (data.labels == 0).mean()
        assert accuracy == pytest.approx(expected)

    def test_max_samples_limits_evaluation(self):
        data = make_blobs_dataset(num_samples=500, num_classes=3, num_features=4, seed=0)
        model = build_model("softmax", in_features=4, num_classes=3)
        accuracy = evaluate_accuracy(model, data, max_samples=50)
        assert 0.0 <= accuracy <= 1.0

    def test_loss_positive_for_untrained_model(self):
        data = make_blobs_dataset(num_samples=100, num_classes=3, num_features=4, seed=0)
        model = build_model("softmax", in_features=4, num_classes=3)
        assert evaluate_loss(model, data) > 0.0


class TestTrainingHistory:
    def _history(self):
        history = TrainingHistory(label="test", config={"k": 1})
        history.add(StepRecord(step=0, simulated_time=1.0, train_loss=2.0,
                               test_accuracy=0.3))
        history.add(StepRecord(step=1, simulated_time=2.0, train_loss=1.0))
        history.add(StepRecord(step=2, simulated_time=3.0, train_loss=0.5,
                               test_accuracy=0.7, max_server_spread=0.1))
        return history

    def test_series_extraction(self):
        history = self._history()
        assert np.allclose(history.steps(), [0, 1, 2])
        assert np.allclose(history.times(), [1.0, 2.0, 3.0])
        assert np.isnan(history.accuracies()[1])
        assert history.losses()[2] == 0.5

    def test_summary_helpers(self):
        history = self._history()
        assert history.final_accuracy() == 0.7
        assert history.best_accuracy() == 0.7
        assert history.total_time() == 3.0
        assert history.total_steps() == 3

    def test_empty_history_defaults(self):
        history = TrainingHistory()
        assert np.isnan(history.final_accuracy())
        assert history.total_time() == 0.0
        assert history.total_steps() == 0

    def test_json_round_trip(self):
        history = self._history()
        restored = TrainingHistory.from_json(history.to_json())
        assert restored.label == "test"
        assert restored.config == {"k": 1}
        assert len(restored) == 3
        assert restored.records[2].max_server_spread == 0.1

    def test_mean_phase_durations(self):
        history = TrainingHistory()
        history.add(StepRecord(step=0, simulated_time=1.0,
                               phase_durations={"phase1": 1.0, "phase2": 2.0}))
        history.add(StepRecord(step=1, simulated_time=2.0,
                               phase_durations={"phase1": 3.0, "phase2": 4.0}))
        history.add(StepRecord(step=2, simulated_time=3.0))  # no breakdown
        means = history.mean_phase_durations()
        assert means == {"phase1": 2.0, "phase2": 3.0}

    def test_mean_phase_durations_empty(self):
        assert TrainingHistory().mean_phase_durations() == {}

    def test_phase_durations_survive_json_round_trip(self):
        history = TrainingHistory()
        history.add(StepRecord(step=0, simulated_time=1.0,
                               phase_durations={"phase1": 0.5}))
        restored = TrainingHistory.from_json(history.to_json())
        assert restored.records[0].phase_durations == {"phase1": 0.5}

    def test_to_dict_equals_asdict_on_every_record_shape(self):
        # to_dict spells the seven fields out; the store's bytes are
        # json.dumps of it, so key order counts as well as the values.
        durations = {"phase1": 0.5, "phase2": 0.25}
        records = [
            StepRecord(step=0, simulated_time=0.0),
            StepRecord(step=1, simulated_time=1.5, train_loss=2.0,
                       test_accuracy=0.5, max_server_spread=0.0,
                       learning_rate=0.1, phase_durations=durations),
            StepRecord(step=np.int64(2), simulated_time=np.float64(2.5),
                       train_loss=np.float64(0.25), phase_durations={}),
        ]
        assert [field.name for field in dataclasses.fields(StepRecord)] \
            == list(records[0].to_dict())
        history = TrainingHistory(label="t", config={"k": 1},
                                  records=records)
        payload = history.to_dict()
        assert payload["records"] == [dataclasses.asdict(r) for r in records]
        # (the third record holds NumPy scalars, which json refuses)
        assert json.dumps(payload["records"][:2]) == json.dumps(
            [dataclasses.asdict(r) for r in records[:2]])
        assert payload["records"][1]["phase_durations"] is not durations


class TestThroughputMetrics:
    def _history(self, times, accuracies):
        history = TrainingHistory()
        for step, (time, accuracy) in enumerate(zip(times, accuracies)):
            history.add(StepRecord(step=step, simulated_time=time,
                                   test_accuracy=accuracy))
        return history

    def test_throughput_updates_per_second(self):
        history = self._history([1.0, 2.0, 3.0, 4.0], [None] * 4)
        assert throughput_updates_per_second(history) == pytest.approx(1.0)

    def test_time_and_steps_to_accuracy(self):
        history = self._history([1.0, 2.0, 3.0], [0.2, 0.5, 0.9])
        assert time_to_accuracy(history, 0.5) == 2.0
        assert steps_to_accuracy(history, 0.5) == 1
        assert time_to_accuracy(history, 0.95) is None

    def test_overhead_percent(self):
        assert overhead_percent(100.0, 165.0) == pytest.approx(65.0)
        assert overhead_percent(100.0, 130.0) == pytest.approx(30.0)
        assert np.isnan(overhead_percent(0.0, 1.0))


class TestCostModel:
    def test_gradient_time_scales_with_batch_and_model(self):
        cost = GRID5000_LIKE
        small = cost.gradient_time(32, 1_000_00)
        large = cost.gradient_time(128, 1_750_000)
        assert large > small

    def test_krum_more_expensive_than_median(self):
        cost = GRID5000_LIKE
        assert cost.aggregation_time("multi_krum", 13, 1_750_000) > \
            cost.aggregation_time("median", 13, 1_750_000)

    def test_mean_cheapest(self):
        cost = GRID5000_LIKE
        assert cost.aggregation_time("mean", 13, 1_750_000) < \
            cost.aggregation_time("median", 13, 1_750_000)

    def test_serialization_grows_with_model_size(self):
        cost = GRID5000_LIKE
        assert cost.serialization_time(1_750_000) > cost.serialization_time(10_000)

    def test_instant_model_is_all_zero(self):
        assert INSTANT.gradient_time(128, 1_750_000) == 0.0
        assert INSTANT.serialization_time(1_750_000) == 0.0
        assert INSTANT.update_time(1_750_000) == 0.0
