"""Bulyan's windowed trim against the stable ``argsort`` it replaced.

:func:`repro.aggregation.bulyan.trimmed_coordinate_mean` sorts the chosen
rows once, walks a window out from the median, and falls back to the
``argsort`` trim when two candidates it ordered tie in distance with
different bits.  The oracle is ``tests/gar_oracle.py``: the per-replica
``argsort`` trim and the per-replica Bulyan body.  Every draw is held to it
bit for bit, whichever path ran; the stacks are built to reach each branch
of the certificate (mirror ties, rounding ties, duplicates, signed zeros,
odd and even θ, windows that reach an end of the sorted order, β = 1).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gar_oracle
from repro.aggregation import Bulyan
from repro.aggregation import bulyan as bulyan_module
from repro.aggregation.bulyan import trimmed_coordinate_mean
from repro.obs.tracer import Tracer, use_tracer

#: column families, each aimed at a branch of the certificate
FAMILIES = ("cloud", "mirror", "rounding", "duplicates", "signed_zeros")


def _column_family(rng, family, shape):
    """``shape`` values of one family (the quorum axis is axis 1)."""
    if family == "cloud":
        return rng.normal(size=shape)
    if family == "mirror":
        # small integers: values mirrored around the median tie exactly
        return rng.integers(-3, 4, size=shape).astype(np.float64)
    if family == "rounding":
        # Distinct x whose |x - m| round to one double, on one side of the
        # median, and far values of distinct distances on the other.
        # Beside a median of 16, x = 2^57 + 64 (repeated) and x + 32 (about
        # once a column) are half an ulp from a double: both distances
        # round to 2^57 + 64.  Beside a median of ±1 to ±3, tiny x tie
        # the same way (and are absorbed by the mean).
        length = shape[1]
        centres = 1 + (length > 8)
        near_count = (length - centres + 1) // 2
        kinds = np.repeat([0, 1, 2], [near_count, centres,
                                      length - centres - near_count])
        kind = rng.permuted(np.broadcast_to(kinds[:, None], shape), axis=1)
        if rng.random() < 0.5:
            centre = np.full(shape, 16.0)
            near = np.full(shape, 2.0 ** 57 + 64.0)
            near[rng.random(shape) * near_count < 1.0] += 32.0
            far = -2.0 ** 58 * (1.0 + rng.random(shape))
        else:
            centre = np.broadcast_to(
                rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0],
                           size=shape[:1] + (1,) + shape[2:]), shape)
            near = rng.integers(1, 4, size=shape) * 1e-17
            far = centre - np.sign(centre) * (5.0 + rng.random(shape))
        return np.choose(kind, [near, centre, far])
    if family == "duplicates":
        values = rng.normal(size=shape)
        rows = rng.integers(0, shape[1], size=shape[1])
        return values[:, rows]
    return rng.choice([0.0, -0.0, 1.0, -1.0, 2.0], size=shape)


@st.composite
def chosen_stacks(draw):
    """``(chosen (R, θ, D), β)`` with each column block from one family."""
    replicas = draw(st.sampled_from([1, 3]))
    length = draw(st.integers(2, 13))
    beta = draw(st.integers(1, length - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    families = draw(st.lists(st.sampled_from(FAMILIES), min_size=1,
                             max_size=4))
    blocks = [_column_family(rng, family,
                             (replicas, length, draw(st.integers(1, 30))))
              for family in families]
    return np.concatenate(blocks, axis=2), beta


@st.composite
def bulyan_stacks(draw):
    """``(stack (R, n, D), f)`` for the whole rule, n ≥ 4f + 3 (and past
    6f + 1 when drawn so, where the window reaches an end)."""
    replicas = draw(st.sampled_from([1, 3]))
    f = draw(st.integers(1, 2))
    n = draw(st.integers(4 * f + 3, 6 * f + 5))
    family = draw(st.sampled_from(FAMILIES))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    stack = _column_family(rng, family, (replicas, n, draw(st.integers(1, 40))))
    return stack, f


def _oracle_trim(chosen, beta):
    return np.stack([gar_oracle._trimmed_coordinate_mean(replica, beta)
                     for replica in chosen])


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestWindowTrim:
    # No max_examples here: the weekly workflow runs these tests under the
    # "weekly" profile of tests/conftest.py, ten times the default budget.
    @settings(deadline=None)
    @given(chosen_stacks())
    def test_trim_is_the_argsort_trim(self, drawn):
        chosen, beta = drawn
        assert _same_bits(trimmed_coordinate_mean(chosen, beta),
                          _oracle_trim(chosen, beta))

    @settings(deadline=None)
    @given(bulyan_stacks())
    def test_bulyan_is_the_per_replica_body(self, drawn):
        stack, f = drawn
        rule = Bulyan(num_byzantine=f)
        assert _same_bits(rule.aggregate_batched(stack),
                          gar_oracle.aggregate_per_replica(rule, stack))


def _falls_back(chosen, beta):
    """Whether the trim of ``chosen`` ran the ``argsort`` (and matched the
    oracle either way)."""
    chosen = np.asarray(chosen, dtype=np.float64)
    if chosen.ndim == 1:
        chosen = chosen[None, :, None]
    tracer = Tracer()
    with use_tracer(tracer):
        got = trimmed_coordinate_mean(chosen, beta)
    assert _same_bits(got, _oracle_trim(chosen, beta))
    return tracer.counters().get("bulyan.trim_fallback", 0) == 1


class TestCertificate:
    """Which stacks the walk proves and which go to the ``argsort``."""

    def test_odd_quorum_of_distinct_values_is_proved(self):
        rng = np.random.default_rng(0)
        assert not _falls_back(rng.normal(size=(3, 15, 500)), 5)

    def test_even_quorum_goes_to_the_argsort(self):
        # (a + b) / 2 is exact for most pairs, so m - a == b - m would tie
        # at the walk's first step: an even θ skips the walk
        rng = np.random.default_rng(0)
        assert _falls_back(rng.normal(size=(1, 14, 500)), 4)

    @pytest.mark.parametrize("column, beta", [
        ([-1.0, 0.0, 1.0], 2),                   # mirror tie
        ([-1.0, -0.0, 0.0, 5.0, 6.0], 2),        # ±0 at the median
        ([1e-17, 2e-17, 1.0, 5.0, 6.0], 2),      # rounding tie below
        ([-6.0, -5.0, -1.0, 1e-17, 2e-17], 2),   # rounding tie above
        ([1e-17, 2e-17, 2e-17, 1.0, 5.0, 6.0, 7.0], 2),  # one past a duplicate
    ])
    def test_ties_with_other_bits_fall_back(self, column, beta):
        assert _falls_back(column, beta)

    @pytest.mark.parametrize("column, beta", [
        ([0.0, 1.0, 1.0, 1.0, 5.0], 2),          # duplicates of the median
        ([2e-17, 2e-17, 1.0, 5.0, 6.0], 3),      # a duplicate at the edge
        ([0.0, 1.0, 2.0, 3.0, 10.0, 20.0, 40.0], 5),  # reaches the low end
        ([-4.0, -1.0, 0.0, 2.0, 8.0], 1),        # β = 1
    ])
    def test_ties_with_equal_bits_are_proved(self, column, beta):
        assert not _falls_back(column, beta)

    def test_nan_and_infinite_medians_fall_back(self):
        with np.errstate(invalid="ignore"):
            assert _falls_back([1.0, np.nan, 2.0], 1)
            assert _falls_back([1.0, np.inf, np.inf], 1)

    def test_wide_gar_shape_is_proved(self, monkeypatch):
        # wide_gar's Bulyan cell: 25 inputs, f = 5, so θ = 15 and β = 5
        calls = []
        monkeypatch.setattr(bulyan_module, "_trim_by_argsort",
                            lambda *args: calls.append(args))
        rng = np.random.default_rng(1)
        stack = rng.normal(size=(1, 25, 2000))
        Bulyan(num_byzantine=5).aggregate_batched(stack)
        assert calls == []
