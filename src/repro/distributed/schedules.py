"""Learning-rate schedules.

Proposition 4.3 requires ``Σ γ_t = ∞`` and ``Σ γ_t² < ∞``;
:class:`InverseTimeSchedule` (γ_t ∝ 1/t) satisfies both and is the
schedule the convergence benches use.  The constant schedule violates
the square-summability condition but matches common practice for the
fixed-horizon MLP experiments.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.exceptions import ConfigurationError

__all__ = [
    "LearningRateSchedule",
    "ConstantSchedule",
    "InverseTimeSchedule",
    "StepDecaySchedule",
]


def _positive_finite(value: float) -> bool:
    return math.isfinite(value) and value > 0


class LearningRateSchedule(ABC):
    """Maps a round index t ≥ 0 to the step size γ_t."""

    @abstractmethod
    def rate(self, round_index: int) -> float:
        """The learning rate for round ``round_index``."""

    def __call__(self, round_index: int) -> float:
        if round_index < 0:
            raise ConfigurationError(f"round_index must be >= 0, got {round_index}")
        value = self.rate(round_index)
        if value <= 0:
            raise ConfigurationError(
                f"schedule produced non-positive rate {value} at t={round_index}"
            )
        return value


class ConstantSchedule(LearningRateSchedule):
    """γ_t = γ₀ for every round."""

    def __init__(self, rate: float):
        if not _positive_finite(rate):
            raise ConfigurationError(
                f"rate must be positive and finite, got {rate}"
            )
        self._rate = float(rate)

    def rate(self, round_index: int) -> float:
        return self._rate


class InverseTimeSchedule(LearningRateSchedule):
    """γ_t = γ₀ / (1 + t/τ): satisfies Prop. 4.3's conditions (ii)."""

    def __init__(self, initial: float, timescale: float = 100.0):
        if not (_positive_finite(initial) and _positive_finite(timescale)):
            raise ConfigurationError(
                f"initial and timescale must be positive and finite, got "
                f"({initial}, {timescale})"
            )
        self.initial = float(initial)
        self.timescale = float(timescale)

    def rate(self, round_index: int) -> float:
        return self.initial / (1.0 + round_index / self.timescale)


class StepDecaySchedule(LearningRateSchedule):
    """γ halves every ``period`` rounds (common deep-learning practice)."""

    def __init__(self, initial: float, period: int, factor: float = 0.5):
        if not _positive_finite(initial):
            raise ConfigurationError(
                f"initial must be positive and finite, got {initial}"
            )
        if period < 1:
            raise ConfigurationError(f"period must be >= 1, got {period}")
        if not 0.0 < factor < 1.0:
            raise ConfigurationError(f"factor must be in (0, 1), got {factor}")
        self.initial = float(initial)
        self.period = int(period)
        self.factor = float(factor)

    def rate(self, round_index: int) -> float:
        return self.initial * self.factor ** (round_index // self.period)
