"""Tests for the Kardam-style staleness filter."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.average import Average
from repro.core.krum import Krum
from repro.core.registry import make_aggregator
from repro.core.staleness import KardamFilter, StalenessAwareAggregator
from repro.exceptions import (
    ByzantineToleranceError,
    ConfigurationError,
    DimensionMismatchError,
)

from tests.core.kardam_reference import ReferenceKardamFilter


def _stack(rng, n=8, d=4):
    return rng.standard_normal((n, d))


class TestConstruction:
    def test_registry_builds_wrapped_rule(self):
        rule = make_aggregator("kardam", inner="krum", f=2)
        assert isinstance(rule, KardamFilter)
        assert isinstance(rule.inner, Krum)
        assert rule.inner.f == 2
        assert rule.name == "kardam(krum(f=2))"

    def test_f_not_forced_on_f_free_inner(self):
        rule = make_aggregator("kardam", inner="average", f=3)
        assert isinstance(rule.inner, Average)

    def test_name_encodes_non_default_config(self):
        rule = KardamFilter(
            Average(), dampening="exponential", gamma=0.9, drop_above=2
        )
        assert "dampening=exponential" in rule.name
        assert "gamma=0.9" in rule.name
        assert "drop_above=2" in rule.name

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="inner"):
            KardamFilter("not-a-rule")
        with pytest.raises(ConfigurationError, match="dampening"):
            KardamFilter(Average(), dampening="bogus")
        with pytest.raises(ConfigurationError, match="gamma"):
            KardamFilter(Average(), gamma=0.0)
        with pytest.raises(ConfigurationError, match="drop_above"):
            KardamFilter(Average(), drop_above=-1)
        with pytest.raises(ConfigurationError, match="lipschitz_quantile"):
            KardamFilter(Average(), lipschitz_quantile=1.5)
        with pytest.raises(ConfigurationError, match="window"):
            KardamFilter(Average(), window=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"drop_above": 1.5},
            {"drop_above": True},
            {"drop_above": "2"},
            {"window": 2.7, "lipschitz_quantile": 0.9},
            {"window": True},
        ],
        ids=["drop_above-float", "drop_above-bool", "drop_above-str",
             "window-float", "window-bool"],
    )
    def test_integer_knobs_reject_non_integers(self, kwargs):
        """``drop_above=1.5`` and ``window=2.7`` were truncated to 1 and
        2, and ``drop_above=True`` became 1."""
        (knob,) = [k for k in kwargs if k != "lipschitz_quantile"]
        with pytest.raises(ConfigurationError, match=f"{knob} must be an integer"):
            KardamFilter(Average(), **kwargs)
        with pytest.raises(ConfigurationError, match=f"{knob} must be an integer"):
            make_aggregator("kardam", f=2, **kwargs)

    def test_integer_knobs_accept_numpy_integers(self):
        rule = KardamFilter(
            Average(),
            drop_above=np.int64(0),
            lipschitz_quantile=0.9,
            window=np.int32(3),
        )
        assert rule.drop_above == 0 and type(rule.drop_above) is int
        assert rule.window == 3 and type(rule.window) is int
        assert rule.name == (
            "kardam(average,drop_above=0,lipschitz_quantile=0.9,window=3)"
        )

    def test_tolerance_delegates_to_inner(self):
        rule = KardamFilter(Krum(f=3))
        with pytest.raises(ByzantineToleranceError):
            rule.check_tolerance(6)  # krum needs 2f + 2 < n


class TestFreshIdentity:
    """Zero staleness must be *exactly* the inner rule — the degenerate
    case the async differential guarantee rests on."""

    def test_sync_call_equals_inner(self, rng):
        vectors = _stack(rng)
        rule = KardamFilter(Krum(f=2))
        expected = Krum(f=2).aggregate_detailed(vectors)
        got = rule.aggregate_detailed(vectors)
        assert got.vector.tobytes() == expected.vector.tobytes()
        np.testing.assert_array_equal(got.selected, expected.selected)

    def test_zero_staleness_equals_inner(self, rng):
        vectors = _stack(rng)
        rule = KardamFilter(Krum(f=2))
        expected = Krum(f=2).aggregate_detailed(vectors)
        got = rule.aggregate_detailed_stale(
            vectors,
            np.zeros(8, dtype=np.int64),
            used_params=np.zeros_like(vectors),
        )
        assert got.vector.tobytes() == expected.vector.tobytes()

    def test_dampening_factor_is_exactly_one_at_zero(self):
        for mode in ("none", "inverse", "exponential"):
            rule = KardamFilter(Average(), dampening=mode)
            assert rule.dampening_factor(np.array([0]))[0] == 1.0


class TestDampening:
    def test_inverse_dampening_scales_stale_rows(self, rng):
        vectors = np.ones((4, 3))
        staleness = np.array([0, 1, 3, 0])
        rule = KardamFilter(Average(), dampening="inverse")
        out = rule.aggregate_detailed_stale(vectors, staleness).vector
        expected = np.mean(
            vectors * (1.0 / (1.0 + staleness))[:, None], axis=0
        )
        np.testing.assert_allclose(out, expected)

    def test_exponential_dampening(self):
        vectors = np.ones((2, 2))
        rule = KardamFilter(
            Average(), dampening="exponential", gamma=0.5
        )
        out = rule.aggregate_detailed_stale(
            vectors, np.array([0, 2])
        ).vector
        np.testing.assert_allclose(out, np.mean([1.0, 0.25]) * np.ones(2))

    def test_none_dampening_keeps_values(self, rng):
        vectors = _stack(rng, n=5)
        rule = KardamFilter(Average(), dampening="none")
        out = rule.aggregate_detailed_stale(
            vectors, np.array([0, 1, 2, 3, 4])
        ).vector
        np.testing.assert_array_equal(out, vectors.mean(axis=0))


class TestDropping:
    def test_drop_above_removes_rows(self):
        vectors = np.stack([np.zeros(2), np.full(2, 100.0)])
        rule = KardamFilter(Average(), dampening="none", drop_above=1)
        out = rule.aggregate_detailed_stale(
            vectors, np.array([0, 5])
        ).vector
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_selected_indices_map_back_to_original_rows(self, rng):
        vectors = _stack(rng, n=9)
        rule = KardamFilter(Krum(f=1), dampening="none", drop_above=0)
        staleness = np.array([3, 0, 0, 0, 0, 0, 0, 0, 3])
        result = rule.aggregate_detailed_stale(vectors, staleness)
        # The winner is a kept row, reported in *original* coordinates.
        assert result.selected[0] in range(1, 8)
        np.testing.assert_array_equal(
            result.vector, vectors[int(result.selected[0])]
        )
        # Scores expand back to n entries, NaN on dropped rows.
        assert result.scores.shape == (9,)
        assert np.isnan(result.scores[0]) and np.isnan(result.scores[8])

    def test_all_dropped_waives_the_drop(self):
        vectors = np.ones((3, 2))
        rule = KardamFilter(Average(), dampening="none", drop_above=0)
        out = rule.aggregate_detailed_stale(
            vectors, np.array([2, 2, 2])
        ).vector
        np.testing.assert_array_equal(out, np.ones(2))


class TestLipschitzFilter:
    def test_outlier_growth_rate_is_dropped(self):
        rule = KardamFilter(
            Average(),
            dampening="none",
            lipschitz_quantile=0.8,
            window=64,
        )
        rng = np.random.default_rng(0)
        n, d = 6, 3
        params = np.zeros((n, d))
        vectors = rng.standard_normal((n, d)) * 0.1
        # Warm up the coefficient window with tame rounds.
        for _ in range(6):
            new_params = params + 0.1
            new_vectors = vectors + 0.01 * rng.standard_normal((n, d))
            rule.aggregate_detailed_stale(
                new_vectors,
                np.zeros(n, dtype=np.int64),
                used_params=new_params,
            )
            params, vectors = new_params, new_vectors
        # Worker 0 suddenly jumps: huge ‖Δv‖ for the same ‖Δx‖.
        spiked = vectors.copy()
        spiked[0] += 1e6
        result = rule.aggregate_detailed_stale(
            spiked, np.zeros(n, dtype=np.int64), used_params=params + 0.1
        )
        assert abs(float(result.vector[0])) < 1e3  # spike filtered out

    def test_hard_dropped_rows_do_not_poison_the_window(self):
        """Regression: a proposal rejected by the drop_above cut must
        not contribute its growth rate to the accepted-coefficient
        window (else an adversary inflates the quantile threshold with
        always-dropped stale proposals, then slips a spike through)."""
        rule = KardamFilter(
            Average(),
            dampening="none",
            drop_above=0,
            lipschitz_quantile=0.5,
        )
        n, d = 4, 2
        params = np.zeros((n, d))
        vectors = np.full((n, d), 0.5)
        rule.aggregate_detailed_stale(
            vectors, np.zeros(n, dtype=np.int64), used_params=params
        )
        # Worker 0 is hard-dropped (stale) with an enormous growth rate.
        spiked = vectors.copy()
        spiked[0] += 1e9
        staleness = np.zeros(n, dtype=np.int64)
        staleness[0] = 5
        rule.aggregate_detailed_stale(
            spiked, staleness, used_params=params + 0.1
        )
        assert all(rate < 1e6 for rate in rule._coefficients)

    def test_without_used_params_filter_is_skipped(self, rng):
        rule = KardamFilter(
            Average(), dampening="none", lipschitz_quantile=0.5
        )
        vectors = _stack(rng, n=4)
        out = rule.aggregate_detailed_stale(
            vectors, np.zeros(4, dtype=np.int64)
        ).vector
        np.testing.assert_array_equal(out, vectors.mean(axis=0))


def _stale_stream(seed: int, rounds: int, dimension: int):
    """Rounds of ``(vectors, used_params, staleness)`` whose Lipschitz
    rates tie, vanish (unchanged proposals), go undefined (parameters
    that did not move), or turn infinite or NaN (±inf, NaN and 1e300
    entries); the slot count varies so the filter's per-slot memory
    grows and shrinks."""
    rng = np.random.default_rng(seed)
    vectors = rng.choice([-1.0, 0.0, 0.5, 1.0], size=(8, dimension))
    params = rng.choice([0.0, 1.0], size=(8, dimension))
    for _ in range(rounds):
        n = int(rng.integers(2, 9))
        step = rng.choice([0.0, 0.25, 1.0], size=(8, 1))
        params = params + step * rng.choice([-1.0, 1.0], size=(8, dimension))
        change = rng.choice([0.0, 0.5, 2.0], size=(8, 1))
        vectors = vectors + change * rng.standard_normal((8, dimension))
        sent, at = vectors[:n].copy(), params[:n].copy()
        sent[rng.integers(0, n), 0] = rng.choice([np.inf, -np.inf, np.nan, 1e300])
        if rng.random() < 0.2:
            at[rng.integers(0, n), 0] = rng.choice([np.inf, np.nan])
        yield sent, at, rng.integers(0, 4, size=n)


class TestLipschitzFilterMatchesFrozenReference:
    """The filter on its sorted rate window against the frozen per-slot
    loop of ``tests/core/kardam_reference.py`` (``np.quantile`` over a
    plain deque): equal keep verdicts and accepted-coefficient windows,
    bit for bit."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        rounds=st.integers(1, 12),
        dimension=st.integers(1, 40),
        window=st.integers(1, 10),
        quantile=st.sampled_from([1.0, 0.9, 0.5, 0.3]),
    )
    @settings(max_examples=150, deadline=None)
    def test_keep_verdicts_and_window_bitwise(
        self, seed, rounds, dimension, window, quantile
    ):
        kwargs = dict(lipschitz_quantile=quantile, window=window)
        library = KardamFilter(Average(), **kwargs)
        reference = ReferenceKardamFilter(Average(), **kwargs)
        for vectors, params, staleness in _stale_stream(seed, rounds, dimension):
            admissible = staleness <= 1
            with np.errstate(invalid="ignore", over="ignore"):
                got = library._lipschitz_keep(
                    vectors, params, admissible=admissible
                )
                want = reference._lipschitz_keep(
                    vectors, params, admissible=admissible
                )
            assert got.tobytes() == want.tobytes()
            assert (
                np.asarray(library._coefficients, dtype=np.float64).tobytes()
                == np.asarray(reference._coefficients, dtype=np.float64).tobytes()
            )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stale_rounds_through_the_drop_cut(self, seed):
        # Rows the drop_above cut already rejected reach the filter as
        # inadmissible: their rates must stay out of both windows.
        kwargs = dict(drop_above=1, lipschitz_quantile=0.9, window=16)
        library = KardamFilter(Average(), **kwargs)
        reference = ReferenceKardamFilter(Average(), **kwargs)
        for vectors, params, staleness in _stale_stream(seed, 40, 6):
            with np.errstate(invalid="ignore", over="ignore"):
                got = library.aggregate_detailed_stale(
                    vectors, staleness, used_params=params
                )
                want = reference.aggregate_detailed_stale(
                    vectors, staleness, used_params=params
                )
            assert got.vector.tobytes() == want.vector.tobytes()
            assert np.array_equal(got.selected, want.selected)
        assert len(library._coefficients) > 0
        assert list(library._coefficients) == list(reference._coefficients)


class TestValidationOfStaleInputs:
    def test_shape_checks(self, rng):
        rule = KardamFilter(Average())
        vectors = _stack(rng, n=4)
        with pytest.raises(DimensionMismatchError, match="staleness"):
            rule.aggregate_detailed_stale(vectors, np.zeros(3))
        with pytest.raises(DimensionMismatchError, match="used_params"):
            rule.aggregate_detailed_stale(
                vectors, np.zeros(4), used_params=np.zeros((4, 99))
            )
        with pytest.raises(ConfigurationError, match=">= 0"):
            rule.aggregate_detailed_stale(
                vectors, np.array([0, -1, 0, 0])
            )

    def test_is_staleness_aware(self):
        assert isinstance(KardamFilter(Average()), StalenessAwareAggregator)
        assert not isinstance(Average(), StalenessAwareAggregator)


class TestEffectiveFDegradation:
    """The follow-on to the drop filters: when they leave too few rows
    for the inner rule's ``2f + 2 < n`` precondition, the filter rebuilds
    the inner rule at the largest admissible effective ``f`` instead of
    dying mid-round; ``strict=True`` preserves the original error."""

    def _stale_stack(self, rng, n=7):
        vectors = rng.standard_normal((n, 4))
        # drop_above=0 keeps only the fresh rows: 3 of 7.
        staleness = np.array([0, 0, 0, 1, 1, 1, 1], dtype=np.int64)
        return vectors, staleness

    def test_default_degrades_instead_of_raising(self, rng):
        """The previously-breaking pairing: Krum(f=2) is admissible for
        the full n=7 stack but not for the 3 rows the hard staleness cut
        keeps.  The filter now degrades to Krum(f=0) and answers."""
        vectors, staleness = self._stale_stack(rng)
        rule = KardamFilter(Krum(f=2), drop_above=0)
        result = rule.aggregate_detailed_stale(vectors, staleness)
        # f_eff = 1 needs n > 4, f_eff = 0 needs n > 2: the search lands
        # on f = 0 for the 3-row stack.
        assert 0 in rule._degraded
        assert result.vector.shape == (4,)
        # The winner is one of the kept (fresh) rows, reported in the
        # caller's original row coordinates.
        assert result.selected.tolist() == [
            int(
                Krum(f=0)
                .aggregate_detailed(vectors[:3])
                .selected[0]
            )
        ]

    def test_strict_reraises_the_tolerance_error(self, rng):
        vectors, staleness = self._stale_stack(rng)
        rule = KardamFilter(Krum(f=2), drop_above=0, strict=True)
        with pytest.raises(ByzantineToleranceError):
            rule.aggregate_detailed_stale(vectors, staleness)

    def test_strict_shows_in_the_name(self):
        assert (
            KardamFilter(Krum(f=2), drop_above=0, strict=True).name
            == "kardam(krum(f=2),drop_above=0,strict=True)"
        )
        assert (
            KardamFilter(Krum(f=2), drop_above=0).name
            == "kardam(krum(f=2),drop_above=0)"
        )

    def test_full_stack_still_uses_the_declared_inner(self, rng):
        """No drop, no degradation: the path is byte-identical to the
        inner rule on the full stack."""
        vectors = rng.standard_normal((7, 4))
        rule = KardamFilter(Krum(f=2), drop_above=0)
        out = rule.aggregate_detailed_stale(
            vectors, np.zeros(7, dtype=np.int64)
        )
        expected = Krum(f=2).aggregate_detailed(vectors)
        assert out.vector.tobytes() == expected.vector.tobytes()
        assert not rule._degraded

    def test_registry_wires_the_inner_builder(self, rng):
        """Built through the registry, degradation rebuilds the inner
        rule via the same registry (other inner kwargs preserved)."""
        vectors = rng.standard_normal((9, 4))
        # 5 fresh rows survive the cut: multi-krum(f=3) needs n > 8,
        # f_eff=2 needs n > 6, f_eff=1 needs n > 4 — the search lands on
        # f_eff=1 with the inner m untouched.
        staleness = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1], dtype=np.int64)
        rule = make_aggregator(
            "kardam",
            inner="multi-krum",
            inner_kwargs={"m": 2},
            f=3,
            drop_above=0,
        )
        result = rule.aggregate_detailed_stale(vectors, staleness)
        assert result.vector.shape == (4,)
        degraded = rule._degraded[1]
        assert degraded.f == 1
        assert degraded.m == 2  # the non-f inner kwargs survived

    def test_registry_strict_passthrough(self, rng):
        vectors, staleness = self._stale_stack(rng)
        rule = make_aggregator(
            "kardam", inner="krum", f=2, drop_above=0, strict=True
        )
        with pytest.raises(ByzantineToleranceError):
            rule.aggregate_detailed_stale(vectors, staleness)

    def test_inner_without_f_reraises(self, rng):
        """An inner rule with no declared f has nothing to degrade to:
        the original error propagates even without strict."""

        class Picky(Average):
            def check_tolerance(self, num_workers):
                if num_workers < 5:
                    raise ByzantineToleranceError("need 5 rows")

        vectors, staleness = self._stale_stack(rng)
        rule = KardamFilter(Picky(), drop_above=0)
        with pytest.raises(ByzantineToleranceError):
            rule.aggregate_detailed_stale(vectors, staleness)

    def test_degraded_candidates_are_cached(self, rng):
        vectors, staleness = self._stale_stack(rng)
        rule = KardamFilter(Krum(f=2), drop_above=0)
        rule.aggregate_detailed_stale(vectors, staleness)
        first = rule._degraded[0]
        rule.aggregate_detailed_stale(vectors, staleness)
        assert rule._degraded[0] is first

    def test_invalid_strict_and_builder_arguments(self):
        with pytest.raises(ConfigurationError, match="strict"):
            KardamFilter(Average(), strict="yes")
        with pytest.raises(ConfigurationError, match="inner_builder"):
            KardamFilter(Average(), inner_builder=42)
