"""Tests for the theory module (contraction, alignment, bounds)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClusterConfig
from repro.nn.schedules import InverseTimeDecay
from repro.theory import (
    AlignmentProbe,
    alignment_cosine,
    estimate_contraction,
    geometric_learning_rate_sum,
    median_contraction_coefficient,
    multi_krum_deviation_ratio,
    optimal_asynchronous_breakdown,
)
from repro.theory.bounds import krum_kappa

max_admissible_byzantine = ClusterConfig.max_admissible_byzantine


class TestMedianContraction:
    def test_identical_quorums_have_zero_distance(self):
        rng = np.random.default_rng(0)
        cloud = rng.normal(size=(5, 10))
        assert median_contraction_coefficient(cloud, cloud) == 0.0

    def test_aligned_replicas_contract(self):
        """Lemma 9.2.3 in the aligned case (r_i = 0): ratio strictly below 1."""
        rng = np.random.default_rng(1)
        direction = rng.normal(size=50)
        direction /= np.linalg.norm(direction)
        scales_a = rng.normal(0, 1, size=6)
        scales_b = rng.normal(0, 1, size=6)
        cloud_a = scales_a[:, None] * direction[None, :]
        cloud_b = scales_b[:, None] * direction[None, :]
        ratio = median_contraction_coefficient(cloud_a, cloud_b)
        assert ratio < 1.0

    def test_byzantine_inputs_do_not_break_contraction(self):
        rng = np.random.default_rng(2)
        direction = rng.normal(size=30)
        direction /= np.linalg.norm(direction)
        cloud_a = rng.normal(0, 1, size=(7, 1)) * direction
        cloud_b = rng.normal(0, 1, size=(7, 1)) * direction
        byzantine = np.full((2, 30), 1e6)
        ratio = median_contraction_coefficient(cloud_a, cloud_b,
                                               byzantine_a=byzantine,
                                               byzantine_b=-byzantine)
        assert ratio < 1.0

    def test_estimate_contraction_below_one_in_expectation(self):
        m = estimate_contraction(num_correct=7, num_byzantine=2, dimension=20,
                                 num_trials=60, seed=0)
        assert 0.0 <= m < 1.0

    def test_dimension_plays_against_the_adversary(self):
        """Paper §1: higher dimension tightens the contraction."""
        low_d = estimate_contraction(num_correct=7, num_byzantine=2, dimension=2,
                                     num_trials=80, seed=1)
        high_d = estimate_contraction(num_correct=7, num_byzantine=2, dimension=200,
                                      num_trials=80, seed=1)
        assert high_d <= low_d + 0.05


class TestMultiKrumDeviation:
    def test_no_byzantine_deviation_is_small(self):
        rng = np.random.default_rng(3)
        correct = rng.normal(size=(8, 5))
        ratio = multi_krum_deviation_ratio(correct, None, num_byzantine=0)
        assert ratio < 1.0

    @given(scale=st.floats(10.0, 1e8), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_deviation_independent_of_attack_magnitude(self, scale, seed):
        """Lemma 9.2.2: the bound does not depend on the Byzantine values."""
        rng = np.random.default_rng(seed)
        correct = rng.normal(size=(9, 6))
        byzantine = rng.normal(0, scale, size=(2, 6))
        ratio = multi_krum_deviation_ratio(correct, byzantine, num_byzantine=2)
        assert ratio < 20.0


class TestAlignment:
    def test_perfectly_aligned_difference_vectors(self):
        base = np.zeros(10)
        direction = np.ones(10)
        vectors = [base, base + direction, base + 2 * direction]
        cos_phi, norms, _ = alignment_cosine(vectors)
        assert cos_phi == pytest.approx(1.0)
        assert norms[0] >= norms[1]

    def test_orthogonal_difference_vectors(self):
        e0 = np.zeros(4); e0[0] = 1.0
        e1 = np.zeros(4); e1[1] = 1.0
        cos_phi, _, _ = alignment_cosine([np.zeros(4), 2 * e0, 2 * e1])
        assert cos_phi == pytest.approx(0.5, abs=0.51)  # dominated pairs include e0-e1

    def test_single_pair_returns_nan(self):
        cos_phi, norms, _ = alignment_cosine([np.zeros(3), np.ones(3)])
        assert np.isnan(cos_phi)
        assert len(norms) == 1

    def test_duplicated_servers_count_once(self):
        # Two servers holding one vector made the two largest differences
        # one difference counted twice: cos φ = 1 with nothing aligned.
        e0 = np.zeros(4); e0[0] = 1.0
        e1 = np.zeros(4); e1[1] = 1.0
        cos_phi, norms, distinct = alignment_cosine(
            [np.zeros(4), e0, e0.copy()])
        assert np.isnan(cos_phi) and norms == [1.0] and distinct == 2
        cos_phi, _, _ = alignment_cosine([np.zeros(4), e0, e0.copy(), 3 * e1])
        assert cos_phi == pytest.approx(
            alignment_cosine([np.zeros(4), e0, 3 * e1])[0])
        probe = AlignmentProbe(interval=1)
        probe.maybe_record(0, [np.zeros(4), e0, e0.copy(), 3 * e1])
        assert probe.samples[0].distinct == 3

    def test_probe_records_on_interval(self):
        probe = AlignmentProbe(interval=20)
        vectors = [np.zeros(5), np.ones(5), np.full(5, 2.0)]
        for step in range(0, 60):
            probe.maybe_record(step, vectors)
        assert len(probe.samples) == 3
        rows = probe.as_rows()
        assert rows[0][0] == 0 and rows[-1][0] == 40

    def test_probe_invalid_interval(self):
        with pytest.raises(ValueError):
            AlignmentProbe(interval=0)


class TestBounds:
    def test_lemma_921_sum_decays(self):
        """Numeric check of Lemma 9.2.1 with a 1/t learning-rate sequence."""
        schedule = InverseTimeDecay(initial=1.0, decay=1.0)
        short = geometric_learning_rate_sum([schedule(t) for t in range(50)], k=0.9)
        long = geometric_learning_rate_sum([schedule(t) for t in range(2000)], k=0.9)
        assert long < short
        assert long < 0.05

    def test_lemma_921_invalid_k(self):
        with pytest.raises(ValueError):
            geometric_learning_rate_sum([0.1], k=1.0)

    def test_optimal_asynchronous_breakdown_is_one_third(self):
        assert optimal_asynchronous_breakdown() == pytest.approx(1.0 / 3.0)

    def test_max_byzantine_counts_match_3f_plus_3(self):
        assert max_admissible_byzantine(6) == 1
        assert max_admissible_byzantine(8) == 1
        assert max_admissible_byzantine(9) == 2
        assert max_admissible_byzantine(18) == 5

    def test_max_byzantine_is_zero_below_three_nodes(self):
        """A pool too small for any Byzantine node admits f = 0, never a
        negative count."""
        assert [max_admissible_byzantine(n) for n in range(4)] == [0, 0, 0, 0]

    def test_max_byzantine_is_the_largest_admissible_count(self):
        for n in range(3, 64):
            f = max_admissible_byzantine(n)
            assert n >= 3 * f + 3
            assert n < 3 * (f + 1) + 3

    def test_paper_deployment_respects_one_third_bound(self):
        assert max_admissible_byzantine(18) / 18 < optimal_asynchronous_breakdown() + 1e-9
        assert max_admissible_byzantine(6) / 6 < optimal_asynchronous_breakdown() + 1e-9

    def test_krum_kappa_increases_with_f(self):
        assert krum_kappa(18, 5) > krum_kappa(18, 1)

    def test_krum_kappa_invalid_when_condition_violated(self):
        with pytest.raises(ValueError):
            krum_kappa(6, 2)
