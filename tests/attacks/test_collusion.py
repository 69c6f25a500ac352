"""Tests for the Figure 2 collusion attack."""

import numpy as np
import pytest

from repro.attacks import make_attack
from repro.attacks.collusion import CollusionAttack
from repro.baselines.distance_based import ClosestToAll
from repro.core.krum import Krum
from repro.exceptions import ByzantineToleranceError, ConfigurationError
from tests.attacks.test_base import make_context


class TestCollusionAttack:
    def test_defeats_closest_to_all(self, rng):
        ctx = make_context(rng, num_honest=9, num_byzantine=3)
        crafted = CollusionAttack(decoy_distance=1e4).craft(ctx)
        stack = np.vstack([ctx.honest_gradients, crafted])
        result = ClosestToAll().aggregate_detailed(stack)
        # The trojan (last Byzantine slot) must be selected.
        assert int(result.selected[0]) == ctx.num_workers - 1

    def test_krum_resists_same_attack(self, rng):
        ctx = make_context(rng, num_honest=9, num_byzantine=3)
        crafted = CollusionAttack(decoy_distance=1e4).craft(ctx)
        stack = np.vstack([ctx.honest_gradients, crafted])
        result = Krum(f=3).aggregate_detailed(stack)
        assert int(result.selected[0]) < 9

    @pytest.mark.parametrize("distance", [10.0, 1e3, 1e7])
    def test_works_at_any_decoy_distance(self, rng, distance):
        ctx = make_context(rng, num_honest=7, num_byzantine=2)
        crafted = CollusionAttack(decoy_distance=distance).craft(ctx)
        stack = np.vstack([ctx.honest_gradients, crafted])
        result = ClosestToAll().aggregate_detailed(stack)
        assert int(result.selected[0]) == ctx.num_workers - 1

    def test_trojan_is_barycenter_of_others(self, rng):
        ctx = make_context(rng, num_honest=6, num_byzantine=3)
        crafted = CollusionAttack().craft(ctx)
        others = np.vstack([ctx.honest_gradients, crafted[:-1]])
        np.testing.assert_allclose(crafted[-1], others.mean(axis=0), rtol=1e-10)

    def test_decoys_identical(self, rng):
        ctx = make_context(rng, num_honest=8, num_byzantine=4)
        crafted = CollusionAttack().craft(ctx)
        for row in crafted[1:-1]:
            np.testing.assert_array_equal(row, crafted[0])

    def test_requires_two_byzantine(self, rng):
        ctx = make_context(rng, num_byzantine=1, num_honest=9)
        with pytest.raises(ByzantineToleranceError, match="f >= 2"):
            CollusionAttack().craft(ctx)

    def test_rejects_bad_distance(self):
        with pytest.raises(ConfigurationError):
            CollusionAttack(decoy_distance=0.0)

    @pytest.mark.parametrize("bad", [7.9, True])
    def test_rejects_non_integer_direction_seed(self, bad):
        with pytest.raises(
            ConfigurationError, match="direction_seed must be an integer"
        ):
            make_attack("collusion", {"direction_seed": bad})

    def test_deterministic_direction(self, rng):
        ctx1 = make_context(np.random.default_rng(1))
        ctx2 = make_context(np.random.default_rng(1))
        a = CollusionAttack(direction_seed=3).craft(ctx1)
        b = CollusionAttack(direction_seed=3).craft(ctx2)
        np.testing.assert_array_equal(a, b)

    def test_against_gradient_reverses_selected_direction(self, rng):
        gradient = np.ones(4)
        ctx = make_context(
            rng, num_honest=7, num_byzantine=3, true_gradient=gradient
        )
        attack = CollusionAttack(decoy_distance=1e3, against_gradient=True)
        crafted = attack.craft(ctx)
        stack = np.vstack([ctx.honest_gradients, crafted])
        result = ClosestToAll().aggregate_detailed(stack)
        # The trojan wins the selection AND points against the gradient.
        assert int(result.selected[0]) == ctx.num_workers - 1
        assert result.vector @ gradient < 0
