"""Tests for learning-rate schedules."""

import numpy as np
import pytest

from repro.distributed.schedules import (
    ConstantSchedule,
    InverseTimeSchedule,
    StepDecaySchedule,
)
from repro.exceptions import ConfigurationError


class TestConstantSchedule:
    def test_constant(self):
        schedule = ConstantSchedule(0.3)
        assert schedule(0) == schedule(100) == 0.3

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            ConstantSchedule(0.0)


class TestInverseTimeSchedule:
    def test_initial_value(self):
        assert InverseTimeSchedule(0.5, timescale=10)(0) == 0.5

    def test_halves_at_timescale(self):
        schedule = InverseTimeSchedule(0.5, timescale=10)
        assert schedule(10) == pytest.approx(0.25)

    def test_prop43_conditions(self):
        """Σ γ_t diverges while Σ γ_t² converges (condition (ii))."""
        schedule = InverseTimeSchedule(1.0, timescale=1.0)
        rates = np.array([schedule(t) for t in range(100_000)])
        # Partial sums of γ grow without bound (log t); compare windows.
        first_half = rates[:50_000].sum()
        total = rates.sum()
        assert total > first_half + 0.5  # still growing
        # Partial sums of γ² approach a finite limit: the tail is tiny.
        tail_sq = (rates[50_000:] ** 2).sum()
        assert tail_sq < 1e-4 * (rates[:50_000] ** 2).sum()

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            InverseTimeSchedule(0.0)
        with pytest.raises(ConfigurationError):
            InverseTimeSchedule(0.1, timescale=0.0)


class TestStepDecaySchedule:
    def test_decay_boundaries(self):
        schedule = StepDecaySchedule(1.0, period=10, factor=0.5)
        assert schedule(9) == 1.0
        assert schedule(10) == 0.5
        assert schedule(25) == 0.25

    def test_rejects_bad_factor(self):
        with pytest.raises(ConfigurationError):
            StepDecaySchedule(1.0, period=5, factor=1.0)


class TestScheduleCall:
    def test_rejects_negative_round(self):
        with pytest.raises(ConfigurationError):
            ConstantSchedule(0.1)(-1)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestNonFiniteRejected:
    """Regression: a NaN rate passed the ``rate <= 0`` checks and trained
    to non-finite parameters without any error."""

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_constant(self, value):
        with pytest.raises(ConfigurationError, match="finite"):
            ConstantSchedule(value)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_inverse_time_initial(self, value):
        with pytest.raises(ConfigurationError, match="finite"):
            InverseTimeSchedule(value, timescale=10.0)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_inverse_time_timescale(self, value):
        with pytest.raises(ConfigurationError, match="finite"):
            InverseTimeSchedule(0.1, timescale=value)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_step_decay_initial(self, value):
        with pytest.raises(ConfigurationError, match="finite"):
            StepDecaySchedule(value, period=5)
