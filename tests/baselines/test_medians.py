"""Tests for coordinate median, trimmed mean and geometric median."""

import numpy as np
import pytest

from repro.baselines.medians import (
    CoordinateWiseMedian,
    GeometricMedian,
    TrimmedMean,
    batched_weiszfeld,
)
from repro.exceptions import (
    ByzantineToleranceError,
    ConfigurationError,
    ConvergenceError,
    DimensionMismatchError,
)


class TestCoordinateWiseMedian:
    def test_matches_numpy(self, rng):
        for n in (9, 10):
            vectors = rng.standard_normal((n, 5))
            assert (
                CoordinateWiseMedian().aggregate(vectors).tobytes()
                == np.median(vectors, axis=0).tobytes()
            )

    def test_resists_minority_outliers(self, honest_cloud):
        byzantine = 1e9 * np.ones((4, 8))
        stack = np.vstack([honest_cloud, byzantine])
        out = CoordinateWiseMedian().aggregate(stack)
        np.testing.assert_allclose(out, np.full(8, 2.0), atol=0.5)


class TestTrimmedMean:
    def test_f_zero_is_average(self, rng):
        vectors = rng.standard_normal((5, 3))
        np.testing.assert_allclose(
            TrimmedMean(f=0).aggregate(vectors), vectors.mean(axis=0)
        )

    def test_trims_extremes_per_coordinate(self):
        vectors = np.array([[0.0], [1.0], [2.0], [100.0], [-100.0]])
        out = TrimmedMean(f=1).aggregate(vectors)
        np.testing.assert_allclose(out, [1.0])

    def test_output_within_honest_range_when_f_correct(self, honest_cloud, rng):
        byzantine = 1e6 * rng.standard_normal((3, 8))
        stack = np.vstack([honest_cloud, byzantine])
        out = TrimmedMean(f=3).aggregate(stack)
        assert np.all(out >= honest_cloud.min(axis=0) - 1e-9)
        assert np.all(out <= honest_cloud.max(axis=0) + 1e-9)

    def test_requires_n_greater_than_2f(self):
        with pytest.raises(ByzantineToleranceError, match="n > 2f"):
            TrimmedMean(f=2).aggregate(np.zeros((4, 2)))


class TestGeometricMedian:
    def test_collinear_median(self):
        vectors = np.array([[0.0], [1.0], [10.0]])
        out = GeometricMedian().aggregate(vectors)
        assert out[0] == pytest.approx(1.0, abs=1e-6)

    def test_symmetric_configuration(self):
        # Vertices of an equilateral-ish symmetric set: median at centroid.
        vectors = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        out = GeometricMedian().aggregate(vectors)
        np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-7)

    def test_single_point(self):
        out = GeometricMedian().aggregate(np.array([[3.0, 4.0]]))
        np.testing.assert_array_equal(out, [3.0, 4.0])

    def test_two_points_median_between(self):
        # Any point on the segment minimizes; Weiszfeld returns the midpoint
        # by symmetry of its initialization.
        vectors = np.array([[0.0, 0.0], [2.0, 0.0]])
        out = GeometricMedian().aggregate(vectors)
        assert 0.0 <= out[0] <= 2.0
        assert out[1] == pytest.approx(0.0, abs=1e-9)

    def test_majority_at_point_pins_median(self):
        # With > n/2 points at the same location, the geometric median IS
        # that location (breakdown-point property).
        vectors = np.vstack([np.tile([5.0, 5.0], (6, 1)), [[100.0, -3.0]], [[-40.0, 7.0]]])
        out = GeometricMedian().aggregate(vectors)
        np.testing.assert_allclose(out, [5.0, 5.0], atol=1e-6)

    def test_resists_far_outliers_better_than_mean(self, honest_cloud):
        byzantine = 1e6 * np.ones((4, 8))
        stack = np.vstack([honest_cloud, byzantine])
        gm = GeometricMedian().aggregate(stack)
        mean = stack.mean(axis=0)
        truth = np.full(8, 2.0)
        assert np.linalg.norm(gm - truth) < np.linalg.norm(mean - truth) / 1e3

    def test_gradient_optimality(self, rng):
        # At the optimum the sum of unit vectors toward the points ~ 0.
        vectors = rng.standard_normal((15, 3))
        out = GeometricMedian(tolerance=1e-12).aggregate(vectors)
        diffs = vectors - out
        norms = np.linalg.norm(diffs, axis=1)
        residual = (diffs / norms[:, None]).sum(axis=0)
        assert np.linalg.norm(residual) < 1e-4

    def test_nonpositive_tolerance_is_configuration_error(self):
        # Regression: a bad constructor parameter is a configuration
        # mistake, not a runtime convergence failure.
        for bad in (0.0, -1e-9, -1.0):
            with pytest.raises(ConfigurationError, match="tolerance"):
                GeometricMedian(tolerance=bad)

    def test_name_encodes_nondefault_parameters(self):
        # The engine groups scenarios by (type, name); differently
        # configured instances must not share a batched kernel group.
        assert GeometricMedian().name == "geometric-median"
        tight = GeometricMedian(tolerance=1e-12, max_iterations=500)
        assert tight.name != GeometricMedian().name
        assert "1e-12" in tight.name and "500" in tight.name

    def test_name_distinguishes_nearby_tolerances(self):
        # The name must round-trip the exact float: two distinct
        # tolerances collapsing to one name would silently merge their
        # scenarios into a single batched kernel group.
        a = GeometricMedian(tolerance=1.00000011e-9)
        b = GeometricMedian(tolerance=1.00000019e-9)
        assert a.name != b.name

    def test_translation_invariance_at_large_offset(self, rng):
        # Regression for the absolute coincidence threshold: detection is
        # scale-relative, so shifting every input by 1e8 must shift the
        # median identically.  The majority cluster forces the iterate
        # through the data-point singularity handling at both scales.
        cloud = np.vstack(
            [np.tile([5.0, -3.0, 2.0], (6, 1)), 30.0 * rng.standard_normal((4, 3))]
        )
        gm = GeometricMedian()
        base = gm.aggregate(cloud)
        shifted = gm.aggregate(cloud + 1e8)
        np.testing.assert_allclose(shifted - 1e8, base, rtol=0, atol=1e-4)
        # The breakdown-point property must survive the offset exactly:
        # the majority location is still the median.
        np.testing.assert_array_equal(base, [5.0, -3.0, 2.0])
        np.testing.assert_array_equal(shifted, np.array([5.0, -3.0, 2.0]) + 1e8)

    def test_tiny_scale_cluster_not_spuriously_collapsed(self):
        # At magnitudes near the old absolute threshold the coincidence
        # test must not merge genuinely distinct points: a 6-of-8
        # majority at p still pins the median at p, not at some average.
        p = np.array([3e-7, -2e-7])
        cloud = np.vstack([np.tile(p, (6, 1)), [[9e-6, 0.0]], [[0.0, -8e-6]]])
        out = GeometricMedian().aggregate(cloud)
        np.testing.assert_allclose(out, p, rtol=0, atol=1e-12)


class TestBatchedWeiszfeld:
    def test_single_scenario_matches_rule(self, rng):
        vectors = rng.standard_normal((9, 4))
        rule = GeometricMedian()
        direct = rule.aggregate(vectors)
        batched = batched_weiszfeld(vectors[None])[0]
        assert direct.tobytes() == batched.tobytes()

    def test_n_equals_one(self):
        out = batched_weiszfeld(np.array([[[3.0, 4.0]], [[-1.0, 2.0]]]))
        np.testing.assert_array_equal(out, [[3.0, 4.0], [-1.0, 2.0]])

    def test_scenarios_converge_independently(self, rng):
        # A hard scenario (majority cluster, sublinear approach) batched
        # with easy ones must not perturb the easy results.
        easy = rng.standard_normal((2, 7, 3))
        hard = np.vstack([np.tile([1.0, 1.0, 1.0], (5, 1)), [[50.0, 0.0, 0.0]], [[0.0, -50.0, 0.0]]])
        batch = np.concatenate([easy, hard[None]], axis=0)
        together = batched_weiszfeld(batch)
        for b in range(2):
            alone = batched_weiszfeld(easy[b : b + 1])[0]
            assert together[b].tobytes() == alone.tobytes()
        np.testing.assert_allclose(together[2], [1.0, 1.0, 1.0], atol=1e-8)

    def test_out_of_steps_certifies_an_optimal_non_nearest_point(self, rng):
        # (0, 0) is optimal: its residual 2.9994 is within its
        # multiplicity 3.  The iterate crawls toward it along a nearly
        # flat objective with (0, -2) as its nearest point, which is
        # not optimal (residual 2.0015 > 2), so only the out-of-steps
        # certification ends the solve.
        crawl = np.array([[0, -2], [1, -24], [0, -2], [0, 0], [0, 0], [0, 0]], float)
        np.testing.assert_array_equal(GeometricMedian().aggregate(crawl), [0.0, 0.0])
        easy = rng.standard_normal((2, 6, 2))
        together = batched_weiszfeld(np.concatenate([easy, crawl[None]]))
        for b in range(2):
            assert together[b].tobytes() == batched_weiszfeld(easy[b : b + 1])[0].tobytes()
        np.testing.assert_array_equal(together[2], [0.0, 0.0])
        poisoned = crawl.copy()
        poisoned[1, 0] = np.nan
        with pytest.raises(ConvergenceError, match="1 of 2 scenario"):
            batched_weiszfeld(np.stack([crawl, poisoned]))

    @pytest.mark.parametrize("row", [0, 2, 4])
    def test_any_nan_raises(self, rng, row):
        stack = rng.standard_normal((1, 5, 2))
        stack[0, row, 1] = np.nan
        with pytest.raises(ConvergenceError):
            batched_weiszfeld(stack)

    @pytest.mark.parametrize("infinite", [1, 2, 3, 4])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_infinite_rows_are_out_voted(self, rng, infinite, sign):
        """1 to 4 of 5 rows with a ±inf entry: the solver returns one of
        the finite rows."""
        stack = rng.standard_normal((1, 5, 2))
        stack[0, :infinite, 0] = sign * np.inf
        out = batched_weiszfeld(stack)[0]
        assert any(np.array_equal(out, row) for row in stack[0, infinite:])

    def test_all_rows_infinite_raises(self, rng):
        stack = rng.standard_normal((1, 5, 2))
        stack[0, :, 0] = [np.inf, -np.inf, np.inf, np.inf, -np.inf]
        with pytest.raises(ConvergenceError):
            batched_weiszfeld(stack)

    def test_rejects_bad_shapes_and_parameters(self):
        with pytest.raises(DimensionMismatchError):
            batched_weiszfeld(np.ones((3, 4)))
        with pytest.raises(DimensionMismatchError):
            batched_weiszfeld(np.empty((0, 4, 2)))
        with pytest.raises(ConfigurationError, match="tolerance"):
            batched_weiszfeld(np.ones((1, 3, 2)), tolerance=0.0)
        with pytest.raises(ConfigurationError, match="max_iterations"):
            batched_weiszfeld(np.ones((1, 3, 2)), max_iterations=0)
