"""Property tests of the one GAR code path.

Every rule has one implementation, over an ``(R, n, D)`` replica stack;
the single call is R = 1.  The batched runtime's equivalence with the
sequential simulator rests on row ``r`` of ``aggregate_batched`` being
**bit-identical** to the R = 1 call on replica ``r`` and to the
per-replica bodies the rules used to carry (``gar_oracle``) — for every
registered rule, including under adversarially-shaped inputs.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gar_oracle
from repro.aggregation import (
    GeometricMedian,
    available_rules,
    get_rule,
    krum_scores_batched,
    pairwise_squared_distances_batched,
)
from repro.aggregation import geometric_median
from repro.aggregation.geometric_median import CHUNK_ELEMENTS
from repro.kernels import available_backends, use_backend


def _attack_stacks(rng, replicas, n, dim, num_byzantine):
    """Replica stacks shaped like the attacks the trainers produce, and
    stacks built to tie: duplicated rows (equal Krum scores, a Weiszfeld
    estimate on an input) and a small integer lattice (exact ties in every
    coordinate and distance)."""
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

    duplicated = honest.copy()
    copies = rng.choice(n, size=n // 2 + 1, replace=False)
    duplicated[:, copies] = duplicated[:, copies[:1]]
    lattice = rng.integers(-2, 3, size=(replicas, n, dim)).astype(np.float64)
    return {"honest": honest, "large_outliers": large_outliers,
            "sign_flipped": sign_flipped, "little_is_enough": little,
            "identical_rows": identical_rows, "duplicate_rows": duplicated,
            "lattice": lattice}


@pytest.mark.parametrize("backend_name", available_backends())
@pytest.mark.parametrize("replicas", [1, 3, 16])
@pytest.mark.parametrize("num_byzantine", [0, 1, 2])
@pytest.mark.parametrize("rule_name", available_rules())
def test_batched_equals_sequential_for_every_rule(rule_name, num_byzantine,
                                                  replicas, backend_name):
    """Row ``r`` of ``aggregate_batched(X)`` is ``aggregate_batched(
    X[r:r+1])[0]`` and the per-replica oracle on ``X[r]``, bit for bit."""
    rng = np.random.default_rng(
        [available_rules().index(rule_name), num_byzantine, replicas])
    rule = get_rule(rule_name, num_byzantine=num_byzantine)
    n = max(rule.minimum_inputs(), 2 * num_byzantine + 4)
    byzantine_rows = max(num_byzantine, 1)
    with use_backend(backend_name), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for dim in (1, 23):
            for label, stack in _attack_stacks(rng, replicas, n, dim,
                                               byzantine_rows).items():
                where = (dim, label)
                batched = rule.aggregate_batched(stack)
                assert batched.shape == (replicas, dim), where
                for r in range(replicas):
                    alone = rule.aggregate_batched(stack[r:r + 1])[0]
                    assert np.array_equal(batched[r], alone), where
                assert np.array_equal(batched, gar_oracle.aggregate_per_replica(
                    rule, stack)), where


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
        assert np.array_equal(batched[r],
                              gar_oracle.pairwise_squared_distances(stack[r]))


def test_batched_krum_scores_match_sequential():
    rng = np.random.default_rng(3)
    stack = rng.normal(size=(5, 9, 17))
    batched = krum_scores_batched(stack, num_byzantine=2)
    for r in range(stack.shape[0]):
        assert np.array_equal(batched[r], gar_oracle.krum_scores(
            stack[r], num_byzantine=2))
    with pytest.raises(ValueError, match="n - f - 2"):
        krum_scores_batched(stack, num_byzantine=8)


# --------------------------------------------------------------------- #
# The geometric median's batched Weiszfeld kernel
# --------------------------------------------------------------------- #
def _per_slice_loop(rule, stack):
    """The reference: the scalar Weiszfeld loop slice by slice, with each
    slice's diagnostics and the warnings the loop raised."""
    rows, converged, iterations = [], [], []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for replica in stack:
            rows.append(gar_oracle.aggregate(rule, replica))
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
    like the attacks the trainers produce.  The widest ``dim`` puts every
    stack past the kernel's chunk budget (``CHUNK_ELEMENTS``): the weighted
    sum runs in column blocks, and from ``n = 9`` the distances in row
    blocks.
    """
    replicas = draw(st.integers(1, 5))
    n = draw(st.integers(3, 12))
    dim = draw(st.sampled_from([1, 2, 7, 23, 266, CHUNK_ELEMENTS // 8 + 1]))
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


@pytest.mark.parametrize("budget", [2, 5, 64, 1000])
def test_weiszfeld_chunks_change_no_bit(monkeypatch, budget):
    """Row and column blocks of every width the budget allows, down to
    two columns, give the unchunked kernel's bits and diagnostics."""
    rng = np.random.default_rng(budget)
    shaped = _attack_stacks(rng, 3, 9, 37, num_byzantine=2)
    stack = np.concatenate([shaped["honest"], shaped["little_is_enough"],
                            shaped["duplicate_rows"]])
    whole = GeometricMedian(num_byzantine=2, max_iterations=20)
    want, _ = _batched_call(whole, stack)
    monkeypatch.setattr(geometric_median, "CHUNK_ELEMENTS", budget)
    chunked = GeometricMedian(num_byzantine=2, max_iterations=20)
    out, _ = _batched_call(chunked, stack)
    assert out.tobytes() == want.tobytes()
    assert (chunked.iterations, chunked.converged) == (whole.iterations,
                                                       whole.converged)
