"""Tests for Gaussian, sign-flip, crash and straggler attacks."""

import numpy as np
import pytest

from repro.attacks import make_attack
from repro.attacks.random_noise import GaussianAttack
from repro.attacks.simple import CrashAttack, SignFlipAttack, StragglerAttack
from repro.exceptions import ConfigurationError
from tests.attacks.test_base import make_context


class TestGaussianAttack:
    def test_shape_and_scale(self, rng):
        ctx = make_context(rng, num_byzantine=4)
        out = GaussianAttack(sigma=200.0).craft(ctx)
        assert out.shape == (4, 4)
        assert out.std() > 50.0

    def test_mean_parameter(self, rng):
        ctx = make_context(rng, num_byzantine=50, dimension=30)
        out = GaussianAttack(sigma=1.0, mean=10.0).craft(ctx)
        assert out.mean() == pytest.approx(10.0, abs=0.5)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ConfigurationError):
            GaussianAttack(sigma=-1.0)


class TestSignFlipAttack:
    def test_uses_true_gradient_when_available(self, rng):
        gradient = np.array([1.0, -2.0, 3.0, 0.5])
        ctx = make_context(rng, true_gradient=gradient)
        out = SignFlipAttack(scale=2.0).craft(ctx)
        np.testing.assert_allclose(out, np.tile(-2.0 * gradient, (2, 1)))

    def test_falls_back_to_honest_mean(self, rng):
        ctx = make_context(rng)
        out = SignFlipAttack(scale=1.0).craft(ctx)
        np.testing.assert_allclose(out[0], -ctx.honest_mean)

    def test_rejects_non_positive_scale(self):
        with pytest.raises(ConfigurationError):
            SignFlipAttack(scale=0.0)


class TestCrashAttack:
    def test_all_zeros(self, rng):
        ctx = make_context(rng, num_byzantine=3)
        out = CrashAttack().craft(ctx)
        np.testing.assert_array_equal(out, np.zeros((3, 4)))


class TestStragglerAttack:
    def test_replays_old_mean(self, rng):
        attack = StragglerAttack(delay=2)
        means = []
        for round_index in range(5):
            honest = np.full((6, 3), float(round_index))
            ctx = make_context(
                rng,
                num_honest=6,
                num_byzantine=1,
                dimension=3,
                honest_gradients=honest,
                byzantine_indices=np.array([6]),
                honest_indices=np.arange(6),
                num_workers=7,
                round_index=round_index,
            )
            out = attack.craft(ctx)
            means.append(out[0, 0])
        # After warm-up the replayed value lags by exactly `delay` rounds.
        assert means[4] == pytest.approx(2.0)

    def test_reset_clears_history(self, rng):
        attack = StragglerAttack(delay=3)
        ctx = make_context(rng)
        attack.craft(ctx)
        attack.reset()
        assert attack._history == []

    def test_rejects_bad_delay(self):
        with pytest.raises(ConfigurationError):
            StragglerAttack(delay=0)

    @pytest.mark.parametrize("bad", [1.5, True])
    def test_rejects_non_integer_delay(self, bad):
        # delay=2.5 would otherwise replay from 2 rounds ago under a
        # "straggler(delay=2.5)" label.
        with pytest.raises(ConfigurationError, match="delay must be an integer"):
            make_attack("straggler", {"delay": bad})
