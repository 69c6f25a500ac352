"""Hypothesis property tests across all aggregation rules."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.baselines.average import Average
from repro.baselines.distance_based import ClosestToAll
from repro.baselines.majority import MinimalDiameterSubset
from repro.baselines.medians import (
    CoordinateWiseMedian,
    GeometricMedian,
    TrimmedMean,
)
from repro.core.krum import Krum


def small_stacks():
    return hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(5, 9), st.integers(1, 5)),
        elements=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    )


def _rules_for(n):
    f = max(0, min((n - 3) // 2, (n - 1) // 2))
    rules = [
        Average(),
        CoordinateWiseMedian(),
        GeometricMedian(max_iterations=5000),
        ClosestToAll(),
    ]
    if f >= 0:
        rules.append(Krum(f=f, strict=False) if n - f - 2 >= 1 else Average())
    if 2 * f < n:
        rules.append(TrimmedMean(f=f))
    if n - f >= 2:
        rules.append(MinimalDiameterSubset(f=f))
    return rules


class TestSharedInvariants:
    @given(small_stacks())
    @settings(max_examples=30, deadline=None)
    def test_envelope_bound(self, vectors):
        """Every rule outputs within the coordinate-wise input envelope.

        (True for selections, means of subsets, medians, trimmed means
        and the geometric median — a basic sanity invariant.)
        """
        lower = vectors.min(axis=0) - 1e-6
        upper = vectors.max(axis=0) + 1e-6
        for rule in _rules_for(len(vectors)):
            out = rule.aggregate(vectors)
            assert np.all(out >= lower), f"{rule.name} broke lower envelope"
            assert np.all(out <= upper), f"{rule.name} broke upper envelope"

    @given(small_stacks())
    @settings(max_examples=30, deadline=None)
    def test_unanimity(self, vectors):
        """If all workers propose the same vector, every rule returns it."""
        unanimous = np.tile(vectors[0], (len(vectors), 1))
        for rule in _rules_for(len(vectors)):
            out = rule.aggregate(unanimous)
            np.testing.assert_allclose(out, vectors[0], rtol=1e-7, atol=1e-7)

    @given(small_stacks())
    @settings(max_examples=30, deadline=None)
    def test_output_shape_and_finiteness(self, vectors):
        for rule in _rules_for(len(vectors)):
            out = rule.aggregate(vectors)
            assert out.shape == (vectors.shape[1],)
            assert np.all(np.isfinite(out)), f"{rule.name} produced non-finite"

    @given(small_stacks())
    # Weiszfeld crawls toward the optimal (0, 0) along a nearly flat
    # objective while (0, -2), not optimal, stays its nearest point.
    @example(np.array([[0, -2], [1, -24], [0, -2], [0, 0], [0, 0], [0, 0]], float))
    @settings(max_examples=20, deadline=None)
    def test_determinism(self, vectors):
        for rule in _rules_for(len(vectors)):
            a = rule.aggregate(vectors.copy())
            b = rule.aggregate(vectors.copy())
            np.testing.assert_array_equal(a, b)


class TestRobustnessProperty:
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.just(9), st.integers(2, 5)),
            elements=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        ),
        st.floats(min_value=1e3, max_value=1e9),
    )
    @settings(max_examples=30, deadline=None)
    def test_krum_ignores_far_outliers(self, honest, magnitude):
        """Moving f Byzantine vectors arbitrarily far cannot drag Krum's
        output outside the honest envelope — the essence of resilience."""
        f = 3
        byzantine = np.full((f, honest.shape[1]), magnitude)
        stack = np.vstack([honest, byzantine])
        out = Krum(f=f).aggregate(stack)
        assert np.all(out >= honest.min(axis=0) - 1e-9)
        assert np.all(out <= honest.max(axis=0) + 1e-9)

    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.just(9), st.integers(2, 4)),
            elements=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        ),
        st.floats(min_value=1e3, max_value=1e9),
    )
    @settings(max_examples=30, deadline=None)
    def test_average_is_dragged_by_outliers(self, honest, magnitude):
        """Contrast property: the same outliers move the average
        arbitrarily far (Lemma 3.1's practical reading)."""
        f = 3
        byzantine = np.full((f, honest.shape[1]), magnitude)
        stack = np.vstack([honest, byzantine])
        out = Average().aggregate(stack)
        assert np.all(out > honest.max(axis=0))
