"""Tier-1 guarantee: heterogeneity is bit-identical across all runtimes.

Two layers, mirroring the batch/adversary equivalence suites:

* **sequential vs batched** — a hetero scenario (non-i.i.d. partition,
  per-worker profiles, local steps) produces bit-identical *full
  histories* per seed whether executed by :class:`GuanYuTrainer` or the
  vectorised multi-replica runtime;
* **sequential vs threaded** — with full quorums and permutation-invariant
  rules the threaded runtime's *loss trajectory* is bit-identical to the
  simulated one for the same hetero scenario.  (Timing fields live on the
  wall clock and are nondeterministic by design; with partial quorums the
  collected message subsets are scheduling-dependent, so the contract —
  documented in ``docs/heterogeneity.md`` — is data-path determinism.)

Both hold because the partition is a pure function of ``(seed, n, spec)``
and all runtimes share the same per-worker seed constants.
"""

import pytest

from repro.batch import run_batched_scenarios
from repro.campaign.engine import build_trainer
from repro.campaign.spec import ScenarioSpec
from repro.experiments.heterogeneity import (
    heterogeneity_table,
    run_heterogeneity_study,
)
from repro.runtime import run
from repro.testing import sequential_history

HETERO_CASES = [
    {"partition": "dirichlet", "alpha": 0.5, "min_samples": 16},
    {"partition": "shards", "shards_per_worker": 2},
    {"imbalance": 1.2, "min_samples": 16,
     "profiles": [{"batch_size": 8, "local_steps": 2,
                   "delay_multiplier": 1.5}, {}]},
    {"partition": "dirichlet", "alpha": 0.8, "min_samples": 16,
     "feature_drift": 0.2,
     "profiles": [{"local_steps": 3}, {}, {"batch_size": 4}]},
]


def _case_id(case):
    return case.get("partition", "iid") + (
        "+profiles" if case.get("profiles") else "")


@pytest.mark.usefixtures("no_fallbacks")
class TestSequentialVsBatched:
    @pytest.mark.parametrize("hetero", HETERO_CASES, ids=_case_id)
    def test_histories_bit_identical(self, hetero):
        specs = [ScenarioSpec(name=f"h-{seed}", num_steps=6,
                              dataset_size=400, seed=seed,
                              hetero=dict(hetero))
                 for seed in (11, 12)]
        sequential = [sequential_history(spec.replace()) for spec in specs]
        batched = run_batched_scenarios([spec.replace() for spec in specs])
        for seq_history, bat_history in zip(sequential, batched):
            assert seq_history.to_dict() == bat_history.to_dict()

    def test_heterogeneity_actually_changes_training(self):
        homogeneous = run(
            ScenarioSpec(name="iid", num_steps=6, dataset_size=400,
                         seed=11)).history
        skewed = run(
            ScenarioSpec(name="skew", num_steps=6, dataset_size=400, seed=11,
                         hetero=HETERO_CASES[0])).history
        assert homogeneous.to_dict() != skewed.to_dict()


class TestSequentialVsThreaded:
    @pytest.mark.parametrize("hetero", HETERO_CASES[:2], ids=_case_id)
    def test_loss_trajectories_bit_identical(self, hetero):
        # Full quorums make the collected multisets scheduling-independent
        # and the coordinate-wise median is permutation-invariant, so the
        # per-step losses must agree bit for bit with the simulated run.
        base = dict(num_workers=6, num_servers=3,
                    declared_byzantine_workers=0,
                    declared_byzantine_servers=0,
                    model_quorum=3, gradient_quorum=6,
                    gradient_rule="median", model_rule="median",
                    num_steps=5, dataset_size=360, seed=9,
                    hetero=dict(hetero))
        sequential = sequential_history(ScenarioSpec(name="seq", **base))
        threaded_spec = ScenarioSpec(name="thr", trainer="guanyu_threaded",
                                     **base).validate()
        threaded = build_trainer(threaded_spec).run(threaded_spec.num_steps)
        assert [r.train_loss for r in sequential.records] \
            == [r.train_loss for r in threaded.records]


class TestHeterogeneityStudy:
    def test_pinned_seed_table_reproduces(self, tmp_path):
        kwargs = dict(skews=("iid", "dirichlet=0.2"),
                      gars=("median",), adversaries=(None,), num_steps=5)
        first, _ = run_heterogeneity_study(**kwargs)
        second, _ = run_heterogeneity_study(**kwargs)
        assert heterogeneity_table(first) == heterogeneity_table(second)

        (row,) = heterogeneity_table(first)
        assert row["gradient_rule"] == "median"
        assert 0.0 <= row["dirichlet=0.2"] <= 1.0
        # The honest median visibly loses accuracy under heavy label skew —
        # the table's whole point.  Deterministic for the pinned seed.
        assert row["dirichlet=0.2"] < row["iid"]

    def test_seed_axis_batches_and_matches_serial(self):
        kwargs = dict(skews=("iid", "dirichlet=0.2"), gars=("median",),
                      adversaries=(None,), seeds=(1, 2), num_steps=4)
        serial, serial_histories = run_heterogeneity_study(**kwargs)
        batched, batched_histories = run_heterogeneity_study(
            batch_seeds=True, **kwargs)
        # Seed replicas of one cell really ran on the batched runtime,
        # and the mean-over-seeds table is bit-identical either way.
        assert heterogeneity_table(serial) == heterogeneity_table(batched)
        for name, history in serial_histories.items():
            assert "seed=" in name
            assert history.to_dict() == batched_histories[name].to_dict()
