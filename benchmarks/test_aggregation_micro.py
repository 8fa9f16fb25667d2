"""The aggregation rules and their kernels at paper dimension.

The paper attributes part of the Byzantine-resilience overhead to running a
robust aggregation rule (Multi-Krum, coordinate-wise median) instead of a
plain average.  What the rules *cost* is the perf ledger's business
(``aggregation.*_us``, ``kernels.reference.*_us``, gated by ``wide_gar``'s
``work_per_s``); these tests check what a timing cannot: that the numbers
the ledger times are the right ones at the Table 1 model's scale.
"""

import timeit

import numpy as np
import pytest

from repro.aggregation import GeometricMedian
from repro.aggregation.krum import pairwise_squared_distances
from repro.core.nodes import max_pairwise_distance
from repro.kernels import get_backend

#: the paper's gradient-quorum size and (reduced) parameter dimension
NUM_INPUTS = 13
DIMENSION = 175_000  # 1/10th of the Table 1 model to keep the benchmark quick


@pytest.fixture(scope="module")
def gradient_cloud():
    rng = np.random.default_rng(0)
    return rng.normal(size=(NUM_INPUTS, DIMENSION))


def test_geometric_median_converges_at_paper_dimension(gradient_cloud):
    """The iterative rule's overhead is only comparable at equal accuracy.

    The ``converged``/``iterations`` diagnostics guarantee that a timing of
    this rule measures a *converged* Weiszfeld run — an unconverged rule
    would look artificially fast and poison the overhead comparison.
    """
    rule = GeometricMedian(num_byzantine=1)
    out = rule(gradient_cloud)
    assert out.shape == (DIMENSION,)
    assert rule.converged is True
    assert 0 < rule.iterations <= rule.max_iterations


def test_geometric_median_converges_at_the_folded_grid_shape():
    """``seq_grid``'s server fold: six servers' gradient quorums of seven
    at D = 266 in one Weiszfeld run, every slice converged and each row
    the per-slice loop's, bit for bit."""
    stack = np.random.default_rng(2).normal(size=(6, 7, 266))
    rule = GeometricMedian(num_byzantine=1)
    out = rule.aggregate_batched(stack)
    assert rule.converged is True
    assert 0 < rule.iterations <= rule.max_iterations
    assert np.array_equal(out, np.stack([rule(replica) for replica in stack]))


# --------------------------------------------------------------------------- #
# Pairwise distances (Gram-matrix path shared by Krum/Multi-Krum/Bulyan and
# the server-spread metric)
# --------------------------------------------------------------------------- #
def _naive_max_pairwise_distance(cloud: np.ndarray) -> float:
    """Reference O(n²) Python-loop implementation (pre-vectorisation)."""
    best = 0.0
    for i in range(cloud.shape[0]):
        for j in range(i + 1, cloud.shape[0]):
            best = max(best, float(np.linalg.norm(cloud[i] - cloud[j])))
    return best


def test_pairwise_squared_distances_match_direct_norms(gradient_cloud):
    squared = pairwise_squared_distances(gradient_cloud)
    assert squared.shape == (NUM_INPUTS, NUM_INPUTS)
    assert np.allclose(squared, squared.T)
    assert np.all(np.diag(squared) == 0.0)
    assert np.all(squared >= 0.0)
    for i, j in ((0, 1), (3, 7), (12, 4)):
        direct = float(np.sum((gradient_cloud[i] - gradient_cloud[j]) ** 2))
        assert squared[i, j] == pytest.approx(direct, rel=1e-9)


def test_max_pairwise_distance_matches_the_naive_loop(gradient_cloud):
    """The vectorised server-spread metric must match the naive loop."""
    expected = _naive_max_pairwise_distance(gradient_cloud)
    result = max_pairwise_distance(list(gradient_cloud))
    assert result == pytest.approx(expected, rel=1e-9)


def test_kernel_median_not_slower_than_np_median_at_wide_gar_shape():
    """The shared sort kernel at the ledger's widest quorum: (25, 30730).

    Best of seven each; the kernel measures 3-5x faster there, so "not
    slower" holds through any scheduling noise.
    """
    stacked = np.random.default_rng(1).normal(size=(25, 30_730))
    kernel = get_backend().median
    assert np.array_equal(kernel(stacked, axis=0), np.median(stacked, axis=0))
    kernel_s = min(timeit.repeat(lambda: kernel(stacked, axis=0), number=1,
                                 repeat=7))
    numpy_s = min(timeit.repeat(lambda: np.median(stacked, axis=0), number=1,
                                repeat=7))
    assert kernel_s <= numpy_s
