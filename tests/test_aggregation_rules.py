"""Unit tests for each gradient aggregation rule."""

import numpy as np
import pytest

from repro.aggregation import (
    ArithmeticMean,
    Bulyan,
    CoordinateWiseMedian,
    GeometricMedian,
    Krum,
    MarginalMedian,
    MultiKrum,
    TrimmedMean,
    available_rules,
    check_vectors,
    get_rule,
    krum_scores_batched,
)


def _cloud(rng, n=10, d=5, center=0.0, spread=1.0):
    return rng.normal(center, spread, size=(n, d))


class TestCheckVectors:
    def test_rejects_empty_list(self):
        with pytest.raises(ValueError):
            check_vectors([])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            check_vectors([np.zeros(3), np.zeros(4)])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_vectors([np.array([1.0, np.nan])])

    def test_accepts_2d_array(self):
        assert check_vectors(np.ones((3, 4))).shape == (3, 4)

    def test_flattens_multidimensional_inputs(self):
        stacked = check_vectors([np.ones((2, 2)), np.zeros((2, 2))])
        assert stacked.shape == (2, 4)


class TestArithmeticMean:
    def test_matches_numpy_mean(self):
        rng = np.random.default_rng(0)
        cloud = _cloud(rng)
        assert np.allclose(ArithmeticMean()(cloud), cloud.mean(axis=0))

    def test_single_outlier_moves_output_arbitrarily(self):
        cloud = np.zeros((9, 3))
        attacked = np.concatenate([cloud, np.full((1, 3), 1e6)])
        out = ArithmeticMean()(attacked)
        assert np.linalg.norm(out) > 1e4  # no resilience whatsoever

    def test_not_marked_byzantine_resilient(self):
        assert ArithmeticMean.byzantine_resilient is False


class TestCoordinateWiseMedian:
    def test_odd_count_picks_middle_values(self):
        vectors = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        assert np.allclose(CoordinateWiseMedian()(vectors), [2.0, 20.0])

    def test_output_within_correct_range_despite_outliers(self):
        correct = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        byzantine = np.array([[1e9, -1e9]])
        out = CoordinateWiseMedian(num_byzantine=1)(np.concatenate([correct, byzantine]))
        assert np.all(out >= 0.0) and np.all(out <= 2.0)

    def test_minimum_inputs(self):
        rule = CoordinateWiseMedian(num_byzantine=2)
        assert rule.minimum_inputs() == 5
        with pytest.raises(ValueError):
            rule(np.zeros((4, 3)))

    def test_marginal_median_discards_largest_norms(self):
        correct = np.zeros((4, 3))
        byzantine = np.full((1, 3), 100.0)
        out = MarginalMedian(num_byzantine=1)(np.concatenate([correct, byzantine]))
        assert np.allclose(out, 0.0)


class TestTrimmedMean:
    def test_equals_mean_when_f_zero(self):
        rng = np.random.default_rng(1)
        cloud = _cloud(rng)
        assert np.allclose(TrimmedMean()(cloud), cloud.mean(axis=0))

    def test_trims_extremes(self):
        vectors = np.array([[0.0], [1.0], [2.0], [3.0], [1000.0]])
        out = TrimmedMean(num_byzantine=1)(vectors)
        assert np.allclose(out, [2.0])

    def test_requires_more_than_2f_inputs(self):
        with pytest.raises(ValueError):
            TrimmedMean(num_byzantine=2)(np.zeros((4, 2)))


class TestKrumFamily:
    def test_krum_scores_shape_and_ordering(self):
        rng = np.random.default_rng(2)
        cloud = np.concatenate([_cloud(rng, n=8, d=4), np.full((1, 4), 50.0)])
        scores = krum_scores_batched(cloud[None], num_byzantine=1)
        assert scores.shape == (1, 9)
        assert scores[0].argmax() == 8  # the far-away vector scores worst
        assert np.array_equal(
            Krum(num_byzantine=1).decide_batched(cloud[None]).scores, scores)

    def test_krum_outputs_one_of_the_inputs(self):
        rng = np.random.default_rng(3)
        cloud = _cloud(rng, n=9)
        out = Krum(num_byzantine=2)(cloud)
        assert any(np.allclose(out, row) for row in cloud)

    def test_krum_rejects_obvious_outlier(self):
        rng = np.random.default_rng(4)
        correct = _cloud(rng, n=8, d=4, spread=0.1)
        byzantine = np.full((1, 4), 1e5)
        out = Krum(num_byzantine=1)(np.concatenate([correct, byzantine]))
        assert np.linalg.norm(out) < 10.0

    def test_multi_krum_requires_2f_plus_3(self):
        rule = MultiKrum(num_byzantine=2)
        assert rule.minimum_inputs() == 7
        with pytest.raises(ValueError):
            rule(np.zeros((6, 2)))

    def test_multi_krum_selection_size_default(self):
        rule = MultiKrum(num_byzantine=1)
        assert rule.selection_size(10) == 7  # n - f - 2

    def test_multi_krum_selection_size_capped_by_override(self):
        rule = MultiKrum(num_byzantine=1, num_selected=3)
        assert rule.selection_size(10) == 3

    def test_multi_krum_excludes_far_byzantine_vectors(self):
        rng = np.random.default_rng(5)
        correct = _cloud(rng, n=10, d=6, spread=0.5)
        byzantine = np.full((2, 6), 1e4)
        rule = MultiKrum(num_byzantine=2)
        indices = rule.decide_batched(
            np.concatenate([correct, byzantine])[None]).selected[0]
        assert all(index < 10 for index in indices)

    def test_multi_krum_with_f_zero_close_to_mean(self):
        # With f = 0, Multi-Krum averages n - 2 vectors, so it should stay
        # near the sample mean of a compact cloud.
        rng = np.random.default_rng(6)
        cloud = _cloud(rng, n=12, d=4, spread=0.2)
        out = MultiKrum(num_byzantine=0)(cloud)
        assert np.linalg.norm(out - cloud.mean(axis=0)) < 0.3

    def test_krum_f_too_large_for_n_raises(self):
        with pytest.raises(ValueError):
            krum_scores_batched(np.zeros((1, 4, 2)), num_byzantine=3)


class TestBulyan:
    def test_requires_4f_plus_3(self):
        rule = Bulyan(num_byzantine=1)
        assert rule.minimum_inputs() == 7
        with pytest.raises(ValueError):
            rule(np.zeros((6, 2)))

    def test_mean_when_f_zero(self):
        rng = np.random.default_rng(7)
        cloud = _cloud(rng, n=7)
        assert np.allclose(Bulyan(num_byzantine=0)(cloud), cloud.mean(axis=0))

    def test_resists_large_outliers(self):
        rng = np.random.default_rng(8)
        correct = _cloud(rng, n=8, d=5, spread=0.1)
        byzantine = np.full((1, 5), 1e6)
        out = Bulyan(num_byzantine=1)(np.concatenate([correct, byzantine]))
        assert np.linalg.norm(out) < 5.0


class TestGeometricMedian:
    def test_exact_for_symmetric_points(self):
        vectors = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        assert np.allclose(GeometricMedian()(vectors), [0.0, 0.0], atol=1e-6)

    def test_resists_outlier(self):
        correct = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]])
        byzantine = np.array([[1e6, 1e6]])
        out = GeometricMedian(num_byzantine=1)(np.concatenate([correct, byzantine]))
        assert np.linalg.norm(out) < 2.0

    def test_converges_on_collinear_points(self):
        vectors = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
        out = GeometricMedian()(vectors)
        assert abs(float(out[0]) - 2.0) < 1e-4

    def test_convergence_diagnostics_exposed(self):
        rule = GeometricMedian(num_byzantine=1)
        assert rule.converged is None and rule.iterations == 0
        rng = np.random.default_rng(0)
        rule(rng.normal(size=(9, 16)))
        assert rule.converged is True
        assert 0 < rule.iterations <= rule.max_iterations

    def test_unconverged_run_warns_and_reports(self):
        rule = GeometricMedian(max_iterations=2, tolerance=1e-30)
        rng = np.random.default_rng(1)
        cloud = rng.normal(size=(7, 8))
        with pytest.warns(RuntimeWarning, match="did not converge"):
            out = rule(cloud)
        assert rule.converged is False
        assert rule.iterations == 2
        assert np.all(np.isfinite(out))

    def test_coincident_estimate_converges_immediately(self):
        vectors = np.array([[1.0, 2.0]] * 5)
        rule = GeometricMedian()
        out = rule(vectors)
        assert np.allclose(out, [1.0, 2.0])
        assert rule.converged is True


class TestRegistry:
    def test_all_rules_registered(self):
        names = available_rules()
        for expected in ("mean", "median", "krum", "multi_krum", "bulyan",
                         "trimmed_mean", "geometric_median", "marginal_median"):
            assert expected in names

    def test_get_rule_instantiates_with_f(self):
        rule = get_rule("multi_krum", num_byzantine=3)
        assert isinstance(rule, MultiKrum)
        assert rule.num_byzantine == 3

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            get_rule("average_of_best_friends")

    def test_negative_f_rejected(self):
        with pytest.raises(ValueError):
            CoordinateWiseMedian(num_byzantine=-1)
