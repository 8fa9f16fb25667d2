"""Tests for the experiment harnesses (fast, tiny scales).

The full-size shape assertions live in ``benchmarks/``; these tests check
that every harness runs end-to-end, returns the expected structure, and
respects its parameters.
"""

import dataclasses

import numpy as np
import pytest

from repro.experiments import (
    ExperimentScale,
    build_workload,
    make_model_factory,
    overhead_report,
    run_attack_sweep,
    run_figure3,
    run_figure4,
    run_gar_ablation,
    run_quorum_ablation,
    run_scaling_study,
    run_table2,
    table1_report,
)
from repro.experiments.figure3 import FIGURE3_SYSTEMS


@pytest.fixture(scope="module")
def tiny_scale():
    """A deliberately tiny scale so every harness finishes in a few seconds."""
    scale = ExperimentScale.small()
    scale.num_steps = 8
    scale.eval_every = 4
    scale.dataset_size = 600
    scale.num_workers = 6
    scale.num_servers = 3
    scale.declared_byzantine_workers = 1
    scale.declared_byzantine_servers = 0
    return scale


class TestScaleAndWorkload:
    def test_small_and_paper_like_presets_valid(self):
        for scale in (ExperimentScale.small(), ExperimentScale.paper_like()):
            assert scale.num_workers >= 3 * scale.declared_byzantine_workers + 3
            assert scale.num_servers >= 3 * scale.declared_byzantine_servers + 3

    def test_build_workload_blobs_and_images(self):
        scale = ExperimentScale.small()
        train, test, in_features, num_classes = build_workload(scale)
        assert len(train) > len(test)
        assert in_features == 8 and num_classes == 4

        scale = dataclasses.replace(scale, dataset="images", dataset_size=80)
        train, test, in_features, num_classes = build_workload(scale)
        assert in_features == 3 * scale.image_size ** 2
        assert num_classes == 10

    def test_unknown_dataset_and_model_raise(self):
        scale = dataclasses.replace(ExperimentScale.small(), dataset="imagenet")
        with pytest.raises(ValueError):
            build_workload(scale)
        scale = dataclasses.replace(ExperimentScale.small(), model="transformer")
        with pytest.raises(ValueError):
            make_model_factory(scale, 8, 4)

    def test_model_factory_is_deterministic(self):
        scale = ExperimentScale.small()
        factory = make_model_factory(scale, 8, 4)
        assert np.allclose(factory().get_flat_parameters(),
                           factory().get_flat_parameters())


class TestTable1:
    def test_report_structure(self):
        report = table1_report()
        assert report["total_parameters"] == pytest.approx(1.75e6, rel=0.02)
        assert len(report["layers"]) == 8


class TestFigure3:
    def test_runs_all_systems(self, tiny_scale):
        result = run_figure3(scale=tiny_scale)
        assert set(result.histories) == set(FIGURE3_SYSTEMS)
        assert all(len(history) == tiny_scale.num_steps
                   for history in result.histories.values())

    def test_subset_of_systems(self, tiny_scale):
        result = run_figure3(scale=tiny_scale, systems=["vanilla_tf"])
        assert list(result.histories) == ["vanilla_tf"]

    def test_batch_size_override_recorded(self, tiny_scale):
        result = run_figure3(scale=tiny_scale, batch_size=8,
                             systems=["vanilla_tf"])
        assert result.batch_size == 8

    def test_summary_rows_have_expected_keys(self, tiny_scale):
        result = run_figure3(scale=tiny_scale, systems=["vanilla_tf",
                                                        "guanyu_vanilla"])
        rows = result.accuracy_summary()
        assert {"system", "final_accuracy", "throughput",
                "time_to_target"} <= set(rows[0])


class TestFigure4AndOverhead:
    def test_figure4_structure(self, tiny_scale):
        result = run_figure4(scale=tiny_scale, num_attacking_workers=1,
                             num_attacking_servers=0)
        assert set(result.histories) == {"vanilla_tf", "vanilla_tf_byzantine",
                                         "guanyu_byzantine"}
        accuracies = result.final_accuracies()
        assert all(0.0 <= value <= 1.0 for value in accuracies.values())

    def test_overhead_report_requires_needed_systems(self, tiny_scale):
        result = run_figure3(scale=tiny_scale, systems=["vanilla_tf"])
        with pytest.raises(ValueError):
            overhead_report(result=result)

    def test_overhead_report_from_scale(self, tiny_scale):
        report = overhead_report(scale=tiny_scale)
        assert report.time_vanilla_tf > 0
        assert report.time_guanyu_byzantine > 0


class TestTable2:
    def test_sampling_interval_and_warmup(self, tiny_scale):
        scale = dataclasses.replace(tiny_scale, num_steps=12,
                                    declared_byzantine_servers=0, num_servers=3)
        samples = run_table2(scale=scale, interval=2, warmup_fraction=0.5)
        assert all(sample.step >= 6 for sample in samples)
        assert len(samples) >= 2


class TestAblations:
    def test_gar_ablation_subset(self, tiny_scale):
        histories = run_gar_ablation(scale=tiny_scale, rules=("median", "mean"))
        assert set(histories) == {"median", "mean"}

    def test_attack_sweep_custom_suite(self, tiny_scale):
        from repro.adversary import SignFlipAttack
        histories = run_attack_sweep(scale=tiny_scale,
                                     attacks={"sign_flip": {
                                         "worker_attack": SignFlipAttack()}})
        assert list(histories) == ["sign_flip"]

    def test_attack_sweep_forwards_extra_suite_fields(self, tiny_scale):
        from repro.adversary import SignFlipAttack
        histories = run_attack_sweep(scale=tiny_scale, attacks={
            "sf": {"worker_attack": SignFlipAttack(),
                   "gradient_rule": "median"}})
        assert histories["sf"].config["gradient_rule"] == "median"

    def test_attack_sweep_rejects_name_override(self, tiny_scale):
        from repro.adversary import SignFlipAttack
        with pytest.raises(ValueError, match="cannot override 'name'"):
            run_attack_sweep(scale=tiny_scale, attacks={
                "sf": {"worker_attack": SignFlipAttack(), "name": "custom"}})

    def test_quorum_ablation_explicit_quorums(self, tiny_scale):
        scale = dataclasses.replace(tiny_scale, num_workers=9,
                                    declared_byzantine_workers=1)
        histories = run_quorum_ablation(scale=scale, quorums=(5, 8))
        assert set(histories) == {5, 8}

    def test_scaling_study_rows(self, tiny_scale):
        rows = run_scaling_study(scale=tiny_scale, worker_counts=(6, 9),
                                 num_steps=4)
        assert [row["num_workers"] for row in rows] == [6, 9]
        assert all(row["throughput"] > 0 for row in rows)
