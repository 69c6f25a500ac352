"""Unit tests for the adaptive adversaries.

Each attack is keyed to one defensive mechanism, so the tests pin the
adaptive logic itself: the staleness-gaming amplification law per
dampening mode, the mimicry attacker's rate budget, and the probe's
scale walk driven by ``selected_last_round`` feedback.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks import (
    BanditProbingAttack,
    DefenseProbingAttack,
    LipschitzMimicryAttack,
    SignFlipAttack,
    StalenessGamingAttack,
    make_attack,
)
from repro.attacks.base import AttackContext
from repro.exceptions import ConfigurationError

from tests.attacks.mimicry_reference import ReferenceLipschitzMimicry
from tests.attacks.test_base import make_context


class TestStalenessGaming:
    def test_sync_round_is_plain_sign_flip(self, rng):
        """No staleness info ⇒ τ = 0 ⇒ Λ = 1 ⇒ −scale · ∇Q."""
        gradient = np.array([1.0, -2.0, 0.5, 3.0])
        ctx = make_context(rng, true_gradient=gradient)
        out = StalenessGamingAttack(scale=2.0).craft(ctx)
        np.testing.assert_allclose(out, np.tile(-2.0 * gradient, (2, 1)))

    @pytest.mark.parametrize(
        ("dampening", "gamma", "expected"),
        [
            ("none", 0.5, [1.0, 1.0, 1.0]),
            ("inverse", 0.5, [1.0, 3.0, 6.0]),  # 1 + tau
            ("exponential", 0.5, [1.0, 4.0, 32.0]),  # gamma**-tau
        ],
    )
    def test_amplification_matches_inverse_dampening(
        self, rng, dampening, gamma, expected
    ):
        gradient = np.ones(4)
        ctx = make_context(
            rng,
            num_byzantine=3,
            byzantine_indices=np.arange(8, 11),
            num_workers=11,
            true_gradient=gradient,
            byzantine_staleness=np.array([0, 2, 5]),
        )
        out = StalenessGamingAttack(dampening=dampening, gamma=gamma).craft(ctx)
        np.testing.assert_allclose(
            out, -np.asarray(expected)[:, None] * gradient[None, :]
        )

    def test_falls_back_to_honest_mean(self, rng):
        ctx = make_context(rng)
        out = StalenessGamingAttack().craft(ctx)
        np.testing.assert_allclose(out, np.tile(-ctx.honest_mean, (2, 1)))

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            StalenessGamingAttack(scale=0.0)
        with pytest.raises(ConfigurationError):
            StalenessGamingAttack(dampening="cubic")
        with pytest.raises(ConfigurationError):
            StalenessGamingAttack(dampening="exponential", gamma=0.0)


class TestLipschitzMimicry:
    def test_first_round_is_honest_mean(self, rng):
        ctx = make_context(rng, true_gradient=np.ones(4))
        out = LipschitzMimicryAttack().craft(ctx)
        np.testing.assert_allclose(out, np.tile(ctx.honest_mean, (2, 1)))

    def test_step_respects_rate_budget(self, rng):
        """After observing honest rates, the proposal's per-round movement
        never exceeds margin · quantile(rates) · displacement."""
        attack = LipschitzMimicryAttack(scale=50.0, margin=0.9)
        honest = 1.0 + 0.1 * rng.standard_normal((8, 4))
        prev_vector = None
        prev_params = None
        for t in range(6):
            params = np.full(4, 0.1 * t)
            ctx = make_context(
                rng,
                round_index=t,
                params=params,
                honest_gradients=honest + 0.01 * t,
                true_gradient=np.ones(4),
            )
            out = attack.craft(ctx)
            vector = out[0]
            np.testing.assert_allclose(out, np.tile(vector, (2, 1)))
            if prev_vector is not None and attack._rates:
                threshold = float(
                    np.quantile(np.asarray(attack._rates), attack.quantile)
                )
                displacement = float(
                    np.linalg.norm(params - prev_params)
                )
                budget = attack.margin * threshold * displacement
                step = float(np.linalg.norm(vector - prev_vector))
                assert step <= budget * (1 + 1e-9)
            prev_vector = vector
            prev_params = params

    def test_jumps_to_target_when_params_static(self, rng):
        """Zero displacement ⇒ the filter measures no rate ⇒ free jump."""
        attack = LipschitzMimicryAttack(scale=2.0)
        gradient = np.ones(4)
        for t in range(2):
            ctx = make_context(
                rng,
                round_index=t,
                params=np.zeros(4),
                true_gradient=gradient,
            )
            out = attack.craft(ctx)
        np.testing.assert_allclose(out, np.tile(-2.0 * gradient, (2, 1)))

    def test_reset_restores_first_round(self, rng):
        attack = LipschitzMimicryAttack()
        ctx = make_context(rng, true_gradient=np.ones(4))
        first = attack.craft(ctx)
        attack.craft(make_context(rng, round_index=1, true_gradient=np.ones(4)))
        attack.reset()
        again = attack.craft(ctx)
        assert first.tobytes() == again.tobytes()

    def test_params_memory_is_pruned(self, rng):
        attack = LipschitzMimicryAttack()
        for t in range(attack._PARAMS_MEMORY + 10):
            attack.craft(
                make_context(
                    rng, round_index=t, params=np.full(4, float(t))
                )
            )
        assert len(attack._params_by_round) <= attack._PARAMS_MEMORY + 1

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            LipschitzMimicryAttack(scale=-1.0)
        with pytest.raises(ConfigurationError):
            LipschitzMimicryAttack(quantile=1.5)
        with pytest.raises(ConfigurationError):
            LipschitzMimicryAttack(window=0)
        with pytest.raises(ConfigurationError):
            LipschitzMimicryAttack(margin=0.0)

    @pytest.mark.parametrize("window", [2.5, True, "3"])
    def test_window_must_be_an_integer(self, window):
        """``window=2.5`` ran with a window of 2."""
        with pytest.raises(ConfigurationError, match="window must be an integer"):
            LipschitzMimicryAttack(window=window)
        with pytest.raises(ConfigurationError, match="window must be an integer"):
            make_attack("lipschitz-mimicry", {"window": window})

    def test_window_accepts_numpy_integers(self):
        attack = LipschitzMimicryAttack(window=np.int64(3))
        assert attack.window == 3 and type(attack.window) is int
        assert attack._rates.maxlen == 3


def _mimicry_contexts(seed, num_workers, dimension, rounds):
    """A random context sequence for the observer pin.

    Each round draws a new honest id set (at least one Byzantine slot),
    a synchronous or stale view (per-worker ``honest_params`` and
    staleness), parameters from a three-vector pool so repeats give zero
    displacement, gradients across six orders of magnitude, and now and
    then a NaN or ±inf gradient or parameter entry.
    """
    rng = np.random.default_rng(seed)
    pool = rng.standard_normal((3, dimension))
    nonfinite = (np.nan, np.inf, -np.inf)
    contexts = []
    for t in range(rounds):
        num_honest = int(rng.integers(1, num_workers))
        honest = np.sort(rng.choice(num_workers, num_honest, replace=False))
        byzantine = np.setdiff1d(np.arange(num_workers), honest)
        gradients = rng.standard_normal((num_honest, dimension)) * (
            10.0 ** rng.integers(-3, 4)
        )
        if rng.random() < 0.3:
            gradients[rng.integers(num_honest), rng.integers(dimension)] = (
                nonfinite[rng.integers(3)]
            )
        stale = {}
        if rng.random() < 0.5:
            honest_params = pool[rng.integers(3, size=num_honest)]
            if rng.random() < 0.2:
                honest_params[
                    rng.integers(num_honest), rng.integers(dimension)
                ] = nonfinite[rng.integers(3)]
            stale = dict(
                honest_params=honest_params,
                honest_staleness=rng.integers(0, 4, num_honest),
                byzantine_staleness=rng.integers(0, 4, byzantine.size),
            )
        contexts.append(
            AttackContext(
                round_index=t,
                params=pool[rng.integers(3)].copy(),
                honest_gradients=gradients,
                byzantine_indices=byzantine,
                honest_indices=honest,
                num_workers=num_workers,
                rng=np.random.default_rng(0),
                true_gradient=(
                    rng.standard_normal(dimension)
                    if rng.random() < 0.5
                    else None
                ),
                **stale,
            )
        )
    return contexts


class TestMimicryObserverMatchesFrozenReference:
    """The stacked observer against the frozen per-worker loop of
    ``tests/attacks/mimicry_reference.py``: equal rate windows and
    crafted proposals, bit for bit, after every round."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        num_workers=st.integers(2, 9),
        dimension=st.integers(1, 70),
        rounds=st.integers(1, 10),
        window=st.integers(1, 12),
    )
    @settings(max_examples=150, deadline=None)
    def test_rates_and_crafts_bitwise(
        self, seed, num_workers, dimension, rounds, window
    ):
        stacked = LipschitzMimicryAttack(scale=3.0, window=window)
        reference = ReferenceLipschitzMimicry(scale=3.0, window=window)
        for context in _mimicry_contexts(seed, num_workers, dimension, rounds):
            context.validate()
            with np.errstate(invalid="ignore", over="ignore"):
                crafted = stacked.craft(context)
                expected = reference.craft(context)
            assert crafted.tobytes() == expected.tobytes()
            assert (
                np.asarray(stacked._rates).tobytes()
                == np.asarray(reference._rates).tobytes()
            )

    def test_float32_rates_take_the_root_in_float64(self):
        # For float32 input the dots stay float32 and the root is
        # math.sqrt's, as in the per-worker loop the observer replaced
        # (np.linalg.norm, which the reference uses, roots in float32).
        rng = np.random.default_rng(4)
        shape = (3, 5, 33)
        gradients = rng.standard_normal(shape).astype(np.float32)
        params = rng.standard_normal(shape).astype(np.float32)
        attack = LipschitzMimicryAttack(window=64)
        for t in range(3):
            attack.craft(
                AttackContext(
                    round_index=t,
                    params=params[t, 0],
                    honest_gradients=gradients[t],
                    byzantine_indices=np.array([5]),
                    honest_indices=np.arange(5),
                    num_workers=6,
                    rng=np.random.default_rng(0),
                    honest_params=params[t],
                    honest_staleness=np.zeros(5, dtype=np.int64),
                    byzantine_staleness=np.zeros(1, dtype=np.int64),
                )
            )
        want = []
        for t in (1, 2):
            for step, change in zip(
                params[t] - params[t - 1], gradients[t] - gradients[t - 1]
            ):
                want.append(
                    math.sqrt(change.dot(change)) / math.sqrt(step.dot(step))
                )
        assert np.asarray(attack._rates).tobytes() == np.array(want).tobytes()

    def test_reset_forgets_observations(self, rng):
        contexts = _mimicry_contexts(3, 6, 5, 6)
        attack = LipschitzMimicryAttack(window=4)
        first = [attack.craft(c).tobytes() for c in contexts]
        attack.reset()
        assert [attack.craft(c).tobytes() for c in contexts] == first


class TestDefenseProbing:
    def _context(self, rng, selected, round_index=0):
        return make_context(
            rng,
            round_index=round_index,
            selected_last_round=selected,
        )

    def test_grows_on_acceptance(self, rng):
        attack = DefenseProbingAttack(grow=2.0, shrink=0.5)
        attack.craft(self._context(rng, np.array([True, False])))
        assert attack.scale == pytest.approx(2.0)
        attack.craft(self._context(rng, np.array([True, True]), 1))
        assert attack.scale == pytest.approx(4.0)

    def test_shrinks_on_rejection(self, rng):
        attack = DefenseProbingAttack(grow=2.0, shrink=0.5)
        attack.craft(self._context(rng, np.array([False, False])))
        assert attack.scale == pytest.approx(0.5)

    def test_no_feedback_keeps_scale(self, rng):
        attack = DefenseProbingAttack(initial_scale=3.0)
        attack.craft(self._context(rng, None))
        assert attack.scale == pytest.approx(3.0)

    def test_scale_is_clamped(self, rng):
        attack = DefenseProbingAttack(
            grow=10.0, shrink=0.1, min_scale=0.5, max_scale=2.0
        )
        attack.craft(self._context(rng, np.array([True, True])))
        assert attack.scale == pytest.approx(2.0)
        attack.reset()
        attack.craft(self._context(rng, np.array([False, False])))
        assert attack.scale == pytest.approx(0.5)

    def test_output_interpolates_from_honest_mean(self, rng):
        """mean + scale · (inner − mean), with the sign-flip inner."""
        attack = DefenseProbingAttack(SignFlipAttack(scale=1.0), initial_scale=0.5)
        ctx = self._context(rng, None)
        out = attack.craft(ctx)
        expected = ctx.honest_mean + 0.5 * (-ctx.honest_mean - ctx.honest_mean)
        np.testing.assert_allclose(out, np.tile(expected, (2, 1)))

    def test_reset_restores_initial_scale_and_inner(self, rng):
        attack = DefenseProbingAttack(initial_scale=1.0)
        attack.craft(self._context(rng, np.array([True, True])))
        assert attack.scale != 1.0
        attack.reset()
        assert attack.scale == pytest.approx(1.0)

    def test_registry_resolves_inner(self):
        attack = make_attack(
            "probe", {"inner": "little-is-enough", "grow": 3.0}
        )
        assert isinstance(attack, DefenseProbingAttack)
        assert attack.grow == 3.0
        assert "little-is-enough" in attack.name

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            DefenseProbingAttack(grow=0.5)
        with pytest.raises(ConfigurationError):
            DefenseProbingAttack(shrink=0.0)
        with pytest.raises(ConfigurationError):
            DefenseProbingAttack(initial_scale=-1.0)
        with pytest.raises(ConfigurationError):
            DefenseProbingAttack(min_scale=2.0, max_scale=1.0)
        with pytest.raises(ConfigurationError):
            DefenseProbingAttack(inner="sign-flip")  # type: ignore[arg-type]


class TestBanditProbing:
    def _context(self, rng, selected, round_index=0):
        return make_context(
            rng,
            round_index=round_index,
            selected_last_round=selected,
        )

    def test_warm_up_pulls_arms_in_order(self, rng):
        attack = BanditProbingAttack(arms=(0.5, 1.0, 2.0))
        accepted = np.array([True, True])
        for expected in (0.5, 1.0, 2.0):
            attack.craft(self._context(rng, accepted))
            assert attack.scale == pytest.approx(expected)

    def test_no_feedback_assigns_no_credit(self, rng):
        """Rounds without feedback (round 0, or an averaging defense
        that reports nothing) must not move the pull counts."""
        attack = BanditProbingAttack(arms=(0.5, 1.0))
        attack.craft(self._context(rng, None))
        attack.craft(self._context(rng, None, 1))
        assert attack._pulls.sum() == 0
        # Without credit the warm-up never advances past the first arm.
        assert attack.scale == pytest.approx(0.5)

    def test_concentrates_on_accepted_arm(self, rng):
        """With a defense that accepts only amplitudes <= 1, UCB play
        concentrates on the largest surviving arm."""
        attack = BanditProbingAttack(
            arms=(0.5, 1.0, 8.0), exploration=0.5
        )
        feedback = None
        for t in range(60):
            attack.craft(self._context(rng, feedback, t))
            feedback = np.array([attack.scale <= 1.0] * 2)
        pulls = dict(zip(attack.arms, attack._pulls))
        assert pulls[1.0] > pulls[8.0]
        means = attack._rewards / np.maximum(attack._pulls, 1)
        assert means[attack.arms.index(1.0)] == pytest.approx(1.0)
        assert means[attack.arms.index(8.0)] == pytest.approx(0.0)

    def test_output_interpolates_from_honest_mean(self, rng):
        """mean + arm · (inner − mean) at the first warm-up arm."""
        attack = BanditProbingAttack(SignFlipAttack(scale=1.0), arms=(0.5,))
        ctx = self._context(rng, None)
        out = attack.craft(ctx)
        expected = ctx.honest_mean + 0.5 * (-ctx.honest_mean - ctx.honest_mean)
        np.testing.assert_allclose(out, np.tile(expected, (2, 1)))

    def test_deterministic_across_instances(self, rng):
        """Same feedback stream ⇒ same arm sequence and proposals — the
        property the loop/batched identity relies on."""
        feedbacks = [None] + [
            np.array([t % 3 != 0, t % 2 == 0]) for t in range(9)
        ]
        outputs = []
        for _ in range(2):
            attack = BanditProbingAttack(arms=(0.5, 1.0, 2.0))
            inner_rng = np.random.default_rng(5)
            outs = [
                attack.craft(self._context(inner_rng, fb, t)).tobytes()
                for t, fb in enumerate(feedbacks)
            ]
            outputs.append(outs)
        assert outputs[0] == outputs[1]

    def test_reset_clears_bandit_state(self, rng):
        attack = BanditProbingAttack(arms=(0.5, 1.0))
        for t in range(4):
            attack.craft(self._context(rng, np.array([True, True]), t))
        assert attack._pulls.sum() > 0
        attack.reset()
        assert attack._pulls.sum() == 0
        assert attack._rewards.sum() == 0.0
        assert attack._last_arm is None
        assert attack.scale == pytest.approx(0.5)

    def test_registry_resolves_inner(self):
        attack = make_attack(
            "probe-bandit",
            {"inner": "little-is-enough", "arms": (1.0, 2.0)},
        )
        assert isinstance(attack, BanditProbingAttack)
        assert attack.arms == (1.0, 2.0)
        assert "little-is-enough" in attack.name

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            BanditProbingAttack(arms=())
        with pytest.raises(ConfigurationError):
            BanditProbingAttack(arms=(1.0, -2.0))
        with pytest.raises(ConfigurationError):
            BanditProbingAttack(arms=(1.0, 1.0))
        with pytest.raises(ConfigurationError):
            BanditProbingAttack(exploration=-0.5)
        with pytest.raises(ConfigurationError):
            BanditProbingAttack(inner="sign-flip")  # type: ignore[arg-type]
