"""Property tests of the batched GAR code path.

The batched multi-replica runtime's equivalence guarantee rests on
``aggregate_batched`` over an ``(R, n, D)`` stack being **bit-identical**
to the ``R`` sequential ``aggregate`` calls — for every registered rule,
including under adversarially-shaped inputs.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation import (
    GeometricMedian,
    GradientAggregationRule,
    available_rules,
    get_rule,
    krum_scores,
    krum_scores_batched,
    pairwise_squared_distances_batched,
)
from repro.aggregation.krum import pairwise_squared_distances


def _attack_stacks(rng, replicas, n, dim, num_byzantine):
    """Replica stacks shaped like the attacks the trainers produce."""
    honest = rng.normal(size=(replicas, n, dim))

    large_outliers = honest.copy()
    large_outliers[:, -num_byzantine:] = rng.normal(
        0.0, 100.0, size=(replicas, num_byzantine, dim))

    sign_flipped = honest.copy()
    sign_flipped[:, -num_byzantine:] = -honest[:, -num_byzantine:]

    # "A little is enough": Byzantine rows inside the honest noise envelope.
    mean = honest[:, :-num_byzantine].mean(axis=1, keepdims=True)
    std = honest[:, :-num_byzantine].std(axis=1, keepdims=True)
    little = honest.copy()
    little[:, -num_byzantine:] = mean - 1.5 * std

    identical_rows = np.repeat(rng.normal(size=(replicas, 1, dim)), n, axis=1)
    return {"honest": honest, "large_outliers": large_outliers,
            "sign_flipped": sign_flipped, "little_is_enough": little,
            "identical_rows": identical_rows}


@pytest.mark.parametrize("rule_name", available_rules())
@pytest.mark.parametrize("num_byzantine", [0, 2])
def test_batched_equals_sequential_for_every_rule(rule_name, num_byzantine):
    rng = np.random.default_rng(hash(rule_name) % (2 ** 32))
    replicas, dim = 6, 23
    rule = get_rule(rule_name, num_byzantine=num_byzantine)
    n = max(rule.minimum_inputs(), 2 * num_byzantine + 4)
    byzantine_rows = max(num_byzantine, 1)
    for label, stack in _attack_stacks(rng, replicas, n, dim,
                                       byzantine_rows).items():
        batched = rule.aggregate_batched(stack)
        sequential = np.stack([rule.aggregate(stack[r])
                               for r in range(replicas)])
        assert batched.shape == (replicas, dim), (rule_name, label)
        assert np.array_equal(batched, sequential), (rule_name, label)


def test_batched_single_replica_matches_plain_aggregate():
    rng = np.random.default_rng(0)
    stack = rng.normal(size=(1, 9, 11))
    for rule_name in available_rules():
        rule = get_rule(rule_name, num_byzantine=1)
        if stack.shape[1] < rule.minimum_inputs():
            continue
        assert np.array_equal(rule.aggregate_batched(stack)[0],
                              rule.aggregate(stack[0])), rule_name


def test_default_fallback_loops_per_replica():
    """Rules without a vectorised override still aggregate correctly."""

    class LastVector(GradientAggregationRule):
        name = "last_vector_test_only"

        def _aggregate(self, stacked):
            return stacked[-1].copy()

    rng = np.random.default_rng(1)
    stack = rng.normal(size=(4, 5, 7))
    out = LastVector().aggregate_batched(stack)
    assert np.array_equal(out, stack[:, -1])


def test_batched_validation_errors():
    rule = get_rule("median", num_byzantine=1)
    with pytest.raises(ValueError, match=r"\(R, n, d\)"):
        rule.aggregate_batched(np.zeros((4, 5)))
    with pytest.raises(ValueError, match="at least one replica"):
        rule.aggregate_batched(np.zeros((0, 5, 3)))
    with pytest.raises(ValueError, match="requires at least"):
        rule.aggregate_batched(np.zeros((2, 2, 3)))  # needs 2f+1 = 3
    bad = np.zeros((2, 5, 3))
    bad[1, 2, 0] = np.nan
    with pytest.raises(ValueError, match="NaN or Inf"):
        rule.aggregate_batched(bad)


def test_batched_gram_kernel_matches_sequential():
    rng = np.random.default_rng(2)
    stack = rng.normal(size=(5, 9, 31))
    batched = pairwise_squared_distances_batched(stack)
    for r in range(stack.shape[0]):
        assert np.array_equal(batched[r], pairwise_squared_distances(stack[r]))


def test_batched_krum_scores_match_sequential():
    rng = np.random.default_rng(3)
    stack = rng.normal(size=(5, 9, 17))
    batched = krum_scores_batched(stack, num_byzantine=2)
    for r in range(stack.shape[0]):
        assert np.array_equal(batched[r], krum_scores(stack[r],
                                                      num_byzantine=2))
    with pytest.raises(ValueError, match="n - f - 2"):
        krum_scores_batched(stack, num_byzantine=8)


# --------------------------------------------------------------------- #
# The geometric median's batched Weiszfeld kernel
# --------------------------------------------------------------------- #
def _per_slice_loop(rule, stack):
    """The reference: ``_aggregate`` slice by slice, with each slice's
    diagnostics and the warnings the loop raised."""
    rows, converged, iterations = [], [], []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for replica in stack:
            rows.append(rule.aggregate(replica))
            converged.append(rule.converged)
            iterations.append(rule.iterations)
    return np.stack(rows), converged, iterations, caught


def _batched_call(rule, stack):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = rule.aggregate_batched(stack)
    return out, caught


@st.composite
def weiszfeld_stacks(draw):
    """Stacks whose slices stop for different reasons in one call.

    Slice 0 has identical rows (every distance is zero: the empty-mask exit
    at iteration 1); in slice 1 a majority of the rows are one point, so
    the coordinate-wise median the iteration starts from coincides with an
    input (a masked weight); slice 2 is a wide cloud, which a small
    ``max_iterations`` exhausts; the other ``replicas`` slices are shaped
    like the attacks the trainers produce.
    """
    replicas = draw(st.integers(1, 5))
    n = draw(st.integers(3, 12))
    dim = draw(st.sampled_from([1, 2, 7, 23, 266]))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e4]))
    max_iterations = draw(st.sampled_from([1, 2, 3, 8, 100]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    shaped = _attack_stacks(rng, replicas, n, dim, num_byzantine=1)
    attacks = np.stack([shaped[draw(st.sampled_from(sorted(shaped)))][r]
                        for r in range(replicas)])
    identical = np.repeat(rng.normal(size=(1, dim)), n, axis=0)
    coincident = rng.normal(size=(n, dim))
    coincident[: n // 2 + 1] = coincident[0]
    cloud = rng.normal(0.0, 50.0, size=(n, dim))
    stack = np.concatenate(
        [np.stack([identical, coincident, cloud]), attacks]) * scale
    return stack, max_iterations


class TestBatchedWeiszfeld:
    # No max_examples here: the weekly workflow runs this test under the
    # "weekly" profile of tests/conftest.py, ten times the default budget.
    @settings(deadline=None)
    @given(weiszfeld_stacks())
    def test_bit_identical_to_the_per_slice_loop(self, drawn):
        stack, max_iterations = drawn
        rule = GeometricMedian(max_iterations=max_iterations)
        want, converged, iterations, loop_warnings = _per_slice_loop(
            rule, stack)
        assert converged[0] is True and iterations[0] == 1
        out, caught = _batched_call(rule, stack)

        assert np.array_equal(out, want)
        assert rule.converged is all(converged)
        assert rule.iterations == max(iterations)
        stalled = converged.count(False)
        assert len(loop_warnings) == stalled
        assert len(caught) == (1 if stalled else 0)
        if stalled:
            assert f"on {stalled} of {len(stack)} slices" in str(
                caught[0].message)

    def test_diagnostics_cover_the_whole_stack(self):
        # Slice 0 exhausts max_iterations, slice 1 stops at iteration 1: a
        # per-slice loop leaves the *last* slice's "converged is True".
        rng = np.random.default_rng(4)
        stack = np.stack([rng.normal(0.0, 50.0, size=(7, 23)),
                          np.repeat(rng.normal(size=(1, 23)), 7, axis=0)])
        rule = GeometricMedian(num_byzantine=1, max_iterations=4)
        out, caught = _batched_call(rule, stack)
        assert rule.converged is False
        assert rule.iterations == 4
        assert np.array_equal(out[1], stack[1, 0])
        assert len(caught) == 1
        assert issubclass(caught[0].category, RuntimeWarning)
        assert "on 1 of 2 slices" in str(caught[0].message)
        # The warning names the aggregate_batched caller, not the library.
        assert caught[0].filename == __file__

        out, caught = _batched_call(GeometricMedian(), stack)
        assert not caught
