"""The batched engine's lane bookkeeping as row operations.

Spreads, evaluation accuracies and node means are computed for every lane
of a group at once; each row must equal the per-lane form the sequential
simulator uses — ``max_pairwise_distance``, ``plan_accuracy`` and
``np.mean`` of a 1-D list — bit for bit, on groups that mix seeds and
rules.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import event, given, settings

from repro.batch import BatchedExecutionError, BatchedGuanYuTrainer
from repro.campaign import ScenarioSpec
from repro.core.nodes import max_pairwise_distance
from repro.metrics.accuracy import plan_accuracy
from test_faults import mixed_rule_groups


def assert_rows_equal_lanes(trainer: BatchedGuanYuTrainer) -> None:
    """The row forms at the trainer's current state equal the per-lane
    forms, lane by lane."""
    lanes = range(trainer.num_replicas)
    correct = trainer.theta[trainer._correct_server_idx]
    assert trainer._server_spreads().tolist() == [
        max_pairwise_distance(list(correct[:, r])) for r in lanes]

    observer = trainer.global_parameters()
    limit = trainer.specs[0].max_eval_samples
    assert trainer._accuracies(observer, limit).tolist() == [
        plan_accuracy(trainer.dense_stack, observer[r],
                      trainer._seeds[k].test_dataset, max_samples=limit)
        for r, k in enumerate(trainer._lane_seed)]

    losses = np.array([computed[0] for index, computed
                       in sorted(trainer._computed.items())
                       if index not in trainer._attacking_worker_idx])
    if len(losses):
        assert trainer._mean_over_nodes(losses).tolist() == [
            float(np.mean(losses[:, r].tolist())) for r in lanes]


# Each example steps one mixed group; the per-lane forms are cheap.
@settings(max_examples=10, deadline=None)
@given(mixed_rule_groups().filter(bool))
def test_row_operations_equal_their_per_lane_forms(specs):
    seeds = len({spec.seed for spec in specs})
    event("a seed each" if seeds == len(specs) else f"{seeds} seed(s)")
    trainer = BatchedGuanYuTrainer(specs)
    for step in range(specs[0].num_steps):
        try:
            trainer.step(step)
        except BatchedExecutionError:
            event("a lane starves")
            return
        assert_rows_equal_lanes(trainer)


def test_image_lanes_evaluate_in_blocks():
    """At 12×12×3 images two lanes' test chunks fill the fold budget, so
    evaluation runs two lanes at a time: over three lanes of two seeds, a
    stack of two seeds' rows, then one seed's view."""
    base = ScenarioSpec(name="images", dataset="images", image_size=12,
                        num_workers=6, num_servers=3,
                        declared_byzantine_workers=1,
                        declared_byzantine_servers=0, num_steps=2,
                        dataset_size=300, max_eval_samples=None)
    specs = [base.replace(name=f"images-{lane}", seed=lane % 2,
                          gradient_rule=rule)
             for lane, rule in enumerate(["median", "multi_krum", "mean"])]
    trainer = BatchedGuanYuTrainer(specs)
    for step in range(2):
        trainer.step(step)
        assert_rows_equal_lanes(trainer)


@pytest.mark.parametrize("nodes", [1, 5, 8, 9, 17, 30])
def test_mean_over_nodes_is_the_one_dimensional_mean(nodes):
    values = np.random.default_rng(nodes).normal(size=(nodes, 7)) * 1e3
    assert BatchedGuanYuTrainer._mean_over_nodes(values).tolist() == [
        float(np.mean(values[:, r].tolist())) for r in range(7)]
