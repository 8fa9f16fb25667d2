"""Tests for the cluster configuration and its quorum arithmetic."""

import pytest

from repro.core import ClusterConfig


class TestValidation:
    def test_minimal_non_byzantine_cluster(self):
        config = ClusterConfig(num_servers=3, num_workers=3)
        assert config.model_quorum == 3
        assert config.gradient_quorum == 3

    def test_requires_3f_plus_3_servers(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_servers=5, num_workers=6, num_byzantine_servers=1)

    def test_requires_3f_plus_3_workers(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_servers=3, num_workers=8, num_byzantine_workers=2)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_servers=3, num_workers=3, num_byzantine_servers=-1)

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_servers=0, num_workers=3)

    def test_model_quorum_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_servers=6, num_workers=6, num_byzantine_servers=1,
                          model_quorum=6)  # max is n - f = 5
        with pytest.raises(ValueError):
            ClusterConfig(num_servers=6, num_workers=6, num_byzantine_servers=1,
                          model_quorum=4)  # min is 2f + 3 = 5

    def test_gradient_quorum_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_servers=3, num_workers=18, num_byzantine_workers=5,
                          gradient_quorum=14)  # max is 13


class TestQuorumDefaults:
    def test_defaults_are_minimum_quorums(self):
        config = ClusterConfig(num_servers=9, num_workers=12,
                               num_byzantine_servers=2, num_byzantine_workers=3)
        assert config.model_quorum == 2 * 2 + 3
        assert config.gradient_quorum == 2 * 3 + 3

    def test_explicit_quorums_accepted_within_range(self):
        config = ClusterConfig(num_servers=9, num_workers=12,
                               num_byzantine_servers=1, num_byzantine_workers=1,
                               model_quorum=8, gradient_quorum=11)
        assert config.model_quorum == 8
        assert config.gradient_quorum == 11

    def test_paper_deployment_matches_section_5(self):
        """Section 5.1: 18 workers, 6 servers, up to 5/1 Byzantine."""
        config = ClusterConfig(6, 18, 1, 5)
        assert config.model_quorum == 5       # 2*1 + 3
        assert config.gradient_quorum == 13   # 2*5 + 3


class TestNodeIdentifiers:
    def test_counts_of_id_lists(self):
        config = ClusterConfig(num_servers=6, num_workers=9,
                               num_byzantine_servers=1, num_byzantine_workers=2)
        assert len(config.server_ids()) == 6
        assert len(config.worker_ids()) == 9

    def test_ids_are_disjoint_and_prefixed(self):
        config = ClusterConfig(num_servers=3, num_workers=3)
        assert all(sid.startswith("ps/") for sid in config.server_ids())
        assert all(wid.startswith("worker/") for wid in config.worker_ids())
        assert not set(config.server_ids()) & set(config.worker_ids())

    def test_as_dict_round_trips_into_constructor(self):
        config = ClusterConfig(num_servers=6, num_workers=9,
                               num_byzantine_servers=1, num_byzantine_workers=2)
        rebuilt = ClusterConfig(**config.as_dict())
        assert rebuilt.model_quorum == config.model_quorum
        assert rebuilt.gradient_quorum == config.gradient_quorum
