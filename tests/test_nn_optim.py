"""Tests for losses and learning-rate schedules."""

import numpy as np
import pytest

from repro.nn.losses import CrossEntropyLoss
from repro.nn.schedules import (
    ConstantSchedule,
    InverseTimeDecay,
    StepDecay,
    partial_sums,
)
from repro.tensor import Tensor


class TestLosses:
    def test_cross_entropy_loss_callable(self):
        logits = Tensor(np.zeros((2, 3)), requires_grad=True)
        loss = CrossEntropyLoss()(logits, np.array([0, 2]))
        loss.backward()
        assert logits.grad is not None


class TestSchedules:
    def test_constant_schedule(self):
        schedule = ConstantSchedule(0.01)
        assert schedule(0) == schedule(1000) == 0.01
        assert not schedule.satisfies_robbins_monro()

    def test_inverse_time_decay_decreases(self):
        schedule = InverseTimeDecay(initial=0.1, decay=0.1)
        assert schedule(0) == pytest.approx(0.1)
        assert schedule(100) < schedule(10) < schedule(0)
        assert schedule.satisfies_robbins_monro()

    def test_step_decay_piecewise(self):
        schedule = StepDecay(initial=1.0, factor=0.5, period=10)
        assert schedule(9) == 1.0
        assert schedule(10) == 0.5
        assert schedule(25) == 0.25

    def test_invalid_configurations_raise(self):
        with pytest.raises(ValueError):
            ConstantSchedule(0.0)
        with pytest.raises(ValueError):
            InverseTimeDecay(initial=-1.0)
        with pytest.raises(ValueError):
            InverseTimeDecay(power=0.3)
        with pytest.raises(ValueError):
            StepDecay(factor=2.0)

    def test_partial_sums_reflect_robbins_monro_behaviour(self):
        # 1/t decay: Ση grows without bound while Ση² stays bounded.
        decay = InverseTimeDecay(initial=1.0, decay=1.0, power=1.0)
        total_short, square_short = partial_sums(decay, 100)
        total_long, square_long = partial_sums(decay, 10000)
        # The harmonic-like sum keeps growing (log n), the squared sum stalls.
        assert total_long > 1.8 * total_short
        assert square_long < square_short + 0.2
