"""Tests for the heterogeneity engine: partitions, profiles, spec plumbing.

Covers the three contract layers:

* the partitioner is a pure function of ``(seed, num_workers, spec)`` and
  each scheme produces the skew it claims;
* ``ScenarioSpec.hetero`` round-trips, validates, and — crucially —
  preserves the content addresses of every pre-heterogeneity store
  (absent ≡ legacy, pinned against literal hashes recorded before the
  field existed);
* the campaign engine groups hetero scenarios correctly for the batched
  runtime and stores batched results under the sequential addresses.
"""

import json

import numpy as np
import pytest

from repro import cli
from repro.campaign import ResultStore, ScenarioSpec, run_campaign
from repro.data import make_blobs_dataset, partition_dataset
from repro.hetero import (
    HeteroSpec,
    WorkerProfile,
    hetero_partition,
    imbalanced_counts,
    partition_indices,
)
from repro.testing import sequential_history

#: spec_hash()/batch_group_hash() of hetero-free specs, recorded on the
#: commit *before* the hetero field existed.  If these move, every result
#: store filled by earlier versions silently stops resolving.
LEGACY_DEFAULT_HASH = \
    "f4f9a6fcf4cd36fd58a1805cc69feaab65fc495faa2537e8ed7daaca0ca9aa09"
LEGACY_DEFAULT_GROUP_HASH = \
    "830df4188ce84283658fe8d4713e7796d7d9a79076f95a1ef94250eaa529c9bc"
LEGACY_TINY_HASH = \
    "c60181e0c069274be9d445e4831e0a959c3a2907cf7034aaa7db8b31eeac0552"
LEGACY_TINY_GROUP_HASH = \
    "9306f8e3b754b301e1fdb7eec2b1ab1972f4f54e9321a356bcfbc832cae4587d"


def tiny_spec(**overrides) -> ScenarioSpec:
    base = dict(name="tiny", num_workers=6, num_servers=3,
                declared_byzantine_workers=1, declared_byzantine_servers=0,
                num_steps=4, eval_every=2, dataset_size=300,
                max_eval_samples=64)
    base.update(overrides)
    return ScenarioSpec(**base)


def labels_for(num_samples=240, num_classes=4, seed=0):
    return make_blobs_dataset(num_samples=num_samples,
                              num_classes=num_classes, seed=seed).labels


# --------------------------------------------------------------------------- #
# Partitioner
# --------------------------------------------------------------------------- #
class TestPartitioner:
    @pytest.mark.parametrize("spec", [
        HeteroSpec(partition="dirichlet", alpha=0.3),
        HeteroSpec(partition="shards", shards_per_worker=2),
        HeteroSpec(imbalance=1.5, min_samples=4),
        HeteroSpec(partition="dirichlet", alpha=0.5, imbalance=1.0,
                   feature_drift=0.2, min_samples=4),
    ], ids=lambda spec: json.dumps(spec.to_dict(), sort_keys=True))
    def test_pure_function_of_seed_and_spec(self, spec):
        data = make_blobs_dataset(num_samples=240, num_classes=4, seed=3)
        first = hetero_partition(data, 6, spec, seed=11)
        second = hetero_partition(data, 6, spec, seed=11)
        for a, b in zip(first, second):
            assert (a.labels == b.labels).all()
            assert (a.features == b.features).all()
        assert sum(len(shard) for shard in first) == len(data)
        different_seed = hetero_partition(data, 6, spec, seed=12)
        assert any(len(a) != len(c) or not (a.labels == c.labels).all()
                   for a, c in zip(first, different_seed))

    def test_dirichlet_skew_grows_as_alpha_shrinks(self):
        labels = labels_for()

        def mean_label_entropy(alpha):
            pieces = partition_indices(
                labels, 6, HeteroSpec(partition="dirichlet", alpha=alpha),
                seed=5)
            entropies = []
            for piece in pieces:
                counts = np.bincount(labels[piece], minlength=4)
                p = counts[counts > 0] / counts.sum()
                entropies.append(-(p * np.log(p)).sum())
            return float(np.mean(entropies))

        assert mean_label_entropy(0.05) < mean_label_entropy(100.0)

    def test_shards_bound_the_labels_per_worker(self):
        # Equal class sizes align the shard cuts with the class boundaries,
        # so every shard is single-class and each worker sees at most
        # shards_per_worker distinct labels — the pathological split.
        labels = np.repeat(np.arange(10), 30)
        pieces = partition_indices(
            labels, 5, HeteroSpec(partition="shards", shards_per_worker=2),
            seed=7)
        for piece in pieces:
            assert len(np.unique(labels[piece])) <= 2
        assert sorted(np.concatenate(pieces)) == list(range(300))

    def test_imbalanced_counts_spread_and_floor(self):
        counts = imbalanced_counts(240, 6, imbalance=1.5, seed=9,
                                   min_samples=4)
        assert counts.sum() == 240
        assert counts.min() >= 4
        assert counts.max() > 240 // 6  # genuinely skewed
        balanced = imbalanced_counts(240, 6, imbalance=0.0, seed=9)
        assert (balanced == 40).all()

    def test_min_samples_floor_is_enforced(self):
        labels = labels_for()
        pieces = partition_indices(
            labels, 6, HeteroSpec(partition="dirichlet", alpha=0.05,
                                  min_samples=10), seed=1)
        assert min(piece.shape[0] for piece in pieces) >= 10

    def test_feature_drift_shifts_features_not_labels(self):
        data = make_blobs_dataset(num_samples=240, num_classes=4, seed=3)
        plain = hetero_partition(data, 4, HeteroSpec(imbalance=0.5), seed=2)
        drifted = hetero_partition(
            data, 4, HeteroSpec(imbalance=0.5, feature_drift=0.3), seed=2)
        for a, b in zip(plain, drifted):
            assert (a.labels == b.labels).all()
            assert not np.allclose(a.features, b.features)
            # One offset per worker: the delta is constant across samples.
            delta = b.features - a.features
            assert np.allclose(delta, delta[0])

    def test_impossible_floor_raises(self):
        labels = labels_for(num_samples=10)
        with pytest.raises(ValueError, match="cannot give"):
            partition_indices(labels, 6, HeteroSpec(min_samples=2), seed=0)

    def test_partition_dataset_dispatches(self):
        data = make_blobs_dataset(num_samples=240, num_classes=4, seed=3)
        legacy = partition_dataset(data, 6, sharding="iid", seed=4)
        explicit_iid = partition_dataset(data, 6, hetero=HeteroSpec(), seed=4)
        for a, b in zip(legacy, explicit_iid):
            assert (a.labels == b.labels).all()
        with pytest.raises(ValueError, match="legacy sharding"):
            partition_dataset(data, 6, sharding="by_class",
                              hetero=HeteroSpec(partition="shards"), seed=4)


# --------------------------------------------------------------------------- #
# Spec validation and round trips
# --------------------------------------------------------------------------- #
class TestHeteroSpec:
    def test_falsy_spec_normalises_to_absent(self):
        spec = tiny_spec(hetero={"partition": "iid"})
        assert spec.hetero is None
        assert tiny_spec(hetero=HeteroSpec()).hetero is None

    def test_scenario_round_trips_through_json(self):
        spec = tiny_spec(hetero={"partition": "dirichlet", "alpha": 0.2,
                                 "profiles": [{"batch_size": 8,
                                               "local_steps": 2}]})
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.hetero.profiles[0].batch_size == 8

    def test_compact_form_drops_irrelevant_knobs(self):
        spec = HeteroSpec(partition="dirichlet", alpha=0.5,
                          shards_per_worker=7)
        assert "shards_per_worker" not in spec.to_dict()

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="unknown partition"):
            HeteroSpec(partition="zipf").validate()
        with pytest.raises(ValueError, match="alpha must be positive"):
            HeteroSpec(partition="dirichlet", alpha=0.0).validate()
        with pytest.raises(ValueError, match="imbalance composes"):
            HeteroSpec(partition="shards", imbalance=1.0).validate()
        with pytest.raises(ValueError, match="local_steps"):
            WorkerProfile(local_steps=0).validate()
        with pytest.raises(ValueError, match="delay_multiplier"):
            WorkerProfile(delay_multiplier=0.0).validate()
        with pytest.raises(ValueError, match="round-robin"):
            HeteroSpec(profiles=[WorkerProfile(batch_size=4)] * 9
                       ).validate(num_workers=6)
        with pytest.raises(ValueError, match="legacy sharding"):
            tiny_spec(sharding="by_class",
                      hetero={"partition": "shards"}).validate()

    def test_from_token(self):
        assert HeteroSpec.from_token("iid") is None
        assert HeteroSpec.from_token("dirichlet=0.1").alpha == 0.1
        assert HeteroSpec.from_token("shards=3").shards_per_worker == 3
        assert HeteroSpec.from_token("imbalance=1.5").imbalance == 1.5
        assert HeteroSpec.from_token("drift=0.4").feature_drift == 0.4
        with pytest.raises(ValueError, match="unknown hetero token"):
            HeteroSpec.from_token("zipf=2")
        with pytest.raises(ValueError, match="bad hetero token"):
            HeteroSpec.from_token("dirichlet=lots")


# --------------------------------------------------------------------------- #
# Content addressing: old stores must resolve unchanged
# --------------------------------------------------------------------------- #
class TestSpecHashStability:
    def test_legacy_hashes_are_pinned(self):
        assert ScenarioSpec().spec_hash() == LEGACY_DEFAULT_HASH
        assert ScenarioSpec().batch_group_hash() == LEGACY_DEFAULT_GROUP_HASH
        assert tiny_spec().spec_hash() == LEGACY_TINY_HASH
        assert tiny_spec().batch_group_hash() == LEGACY_TINY_GROUP_HASH

    def test_explicit_iid_hetero_hashes_like_absent(self):
        assert tiny_spec(hetero={"partition": "iid"}).spec_hash() \
            == LEGACY_TINY_HASH

    def test_hetero_changes_the_address(self):
        skewed = tiny_spec(hetero={"partition": "dirichlet", "alpha": 0.1})
        assert skewed.spec_hash() != LEGACY_TINY_HASH
        assert skewed.spec_hash() != \
            tiny_spec(hetero={"partition": "shards"}).spec_hash()

    def test_batch_group_hash_groups_seed_replicas_per_hetero_cell(self):
        hetero = {"partition": "dirichlet", "alpha": 0.5}
        a = tiny_spec(seed=1, hetero=dict(hetero))
        b = tiny_spec(seed=2, hetero=dict(hetero))
        other = tiny_spec(seed=1, hetero={"partition": "shards"})
        assert a.batch_group_hash() == b.batch_group_hash()
        assert a.spec_hash() != b.spec_hash()
        assert a.batch_group_hash() != other.batch_group_hash()
        assert a.batch_group_hash() != tiny_spec(seed=1).batch_group_hash()


# --------------------------------------------------------------------------- #
# Campaign engine and store integration
# --------------------------------------------------------------------------- #
class TestCampaignIntegration:
    def test_batched_campaign_fills_sequential_addresses(self, tmp_path):
        hetero = {"partition": "dirichlet", "alpha": 0.5, "min_samples": 16}
        scenarios = [tiny_spec(name=f"d-{seed}", seed=seed,
                               hetero=dict(hetero))
                     for seed in (1, 2)]
        store = ResultStore(tmp_path / "store")
        result = run_campaign([spec.replace() for spec in scenarios],
                              store=store, batch_seeds=True)
        assert all(outcome.batched for outcome in result.outcomes)
        for spec in scenarios:
            stored = store.get(spec.spec_hash())
            sequential = sequential_history(spec.replace())
            assert stored.history.to_dict() == sequential.to_dict()

    def test_store_summary_and_query_surface_hetero(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = tiny_spec(hetero={"partition": "shards"})
        run_campaign([spec], store=store)
        (row,) = store.summary_rows()
        assert row["hetero"] == "shards"
        assert store.query(hetero={"partition": "shards"})
        assert not store.query(hetero=None)

    def test_mismatched_lane_batch_clamps_fall_back(self):
        # Workers can end up with fewer samples than the batch size under
        # extreme skew; per-seed clamps then differ across lanes and the
        # batched runtime must refuse (the campaign engine falls back).
        hetero = {"partition": "dirichlet", "alpha": 0.05}
        scenarios = [tiny_spec(name=f"x-{seed}", seed=seed,
                               hetero=dict(hetero), batch_size=32)
                     for seed in range(4)]
        result = run_campaign([spec.replace() for spec in scenarios],
                              batch_seeds=True)
        for outcome, spec in zip(result.outcomes, scenarios):
            assert outcome.status in ("ran", "cached")
            if outcome.status == "ran" and not outcome.batched:
                sequential = sequential_history(spec.replace())
                assert outcome.history.to_dict() == sequential.to_dict()


# --------------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------------- #
class TestHeteroCli:
    def test_sweep_hetero_axis(self, capsys, tmp_path):
        code = cli.main(["--steps", "4", "sweep", "--gars", "median",
                         "--hetero", "iid", "dirichlet=0.3",
                         "--processes", "1",
                         "--store", str(tmp_path / "store")])
        out = capsys.readouterr().out
        assert code == 0
        assert "dirichlet=0.3" in out
        assert "failed 0" in out

    def test_sweep_rejects_bad_hetero_token(self, capsys):
        code = cli.main(["sweep", "--hetero", "zipf=2"])
        assert code == 2
        assert "unknown hetero token" in capsys.readouterr().err

    def test_hetero_subcommand_writes_table_and_json(self, capsys, tmp_path):
        json_path = tmp_path / "hetero.json"
        code = cli.main(["--steps", "4", "--json", str(json_path),
                         "reproduce", "hetero"])
        out = capsys.readouterr().out
        assert code == 0
        assert "gradient_rule" in out and "dirichlet=0.1" in out
        rows = json.loads(json_path.read_text())["hetero"]["rows"]
        assert [(row["gradient_rule"], row["adversary"]) for row in rows] \
            == [(gar, adversary) for gar in ("mean", "median", "multi_krum")
                for adversary in ("-", "collusion")]
        assert set(rows[0]) >= {"iid", "dirichlet=10", "dirichlet=1",
                                "dirichlet=0.1"}
