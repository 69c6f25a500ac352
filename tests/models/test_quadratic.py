"""Tests for the quadratic bowl model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks.registry import make_attack
from repro.baselines.average import Average
from repro.engine import BatchedSimulation
from repro.exceptions import ConfigurationError, SimulationError
from repro.experiments.builders import build_quadratic_simulation
from repro.models.quadratic import QuadraticBowl
from tests.helpers import assert_gradients_close, numerical_gradient


class TestQuadraticBowl:
    def test_value_at_optimum_is_offset(self):
        bowl = QuadraticBowl(4, optimum=np.ones(4), offset=2.0)
        assert bowl.value(np.ones(4)) == pytest.approx(2.0)

    def test_gradient_zero_at_optimum(self):
        bowl = QuadraticBowl(5, optimum=np.arange(5.0))
        np.testing.assert_allclose(bowl.exact_gradient(np.arange(5.0)), np.zeros(5))

    def test_gradient_matches_numeric(self, rng):
        matrix = rng.standard_normal((4, 4))
        curvature = matrix @ matrix.T + 4 * np.eye(4)
        bowl = QuadraticBowl(4, curvature=curvature)
        x = rng.standard_normal(4)
        numeric = numerical_gradient(lambda p: bowl.value(p), x.copy())
        assert_gradients_close(bowl.exact_gradient(x), numeric, rtol=1e-5)

    def test_scalar_curvature(self):
        bowl = QuadraticBowl(3, curvature=2.0)
        np.testing.assert_allclose(
            bowl.exact_gradient(np.array([1.0, 0.0, 0.0])), [2.0, 0.0, 0.0]
        )

    def test_distance_to_optimum(self):
        bowl = QuadraticBowl(2, optimum=np.array([3.0, 4.0]))
        assert bowl.distance_to_optimum(np.zeros(2)) == pytest.approx(5.0)

    def test_model_interface_ignores_batch(self, rng):
        bowl = QuadraticBowl(3)
        x = rng.standard_normal(3)
        assert bowl.loss(x, np.zeros((5, 1)), np.zeros(5)) == bowl.value(x)
        np.testing.assert_array_equal(
            bowl.gradient(x, None, None), bowl.exact_gradient(x)
        )

    def test_estimator_is_unbiased(self, rng):
        bowl = QuadraticBowl(6)
        estimator = bowl.as_estimator(sigma=0.3)
        x = rng.standard_normal(6)
        samples = np.stack([estimator.estimate(x, rng) for _ in range(4000)])
        np.testing.assert_allclose(
            samples.mean(axis=0), bowl.exact_gradient(x), atol=0.05
        )

    def test_estimator_sigma_matches_definition(self, rng):
        # d sigma^2 = E||G - g||^2
        bowl = QuadraticBowl(10)
        estimator = bowl.as_estimator(sigma=0.5)
        x = np.zeros(10)
        measured = estimator.empirical_sigma(x, rng, num_samples=2000)
        assert measured == pytest.approx(0.5, rel=0.1)

    def test_rejects_non_psd_curvature(self):
        with pytest.raises(ConfigurationError, match="positive definite"):
            QuadraticBowl(2, curvature=np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_rejects_asymmetric_curvature(self):
        with pytest.raises(ConfigurationError, match="symmetric"):
            QuadraticBowl(2, curvature=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_wrong_optimum_shape(self):
        with pytest.raises(ConfigurationError):
            QuadraticBowl(3, optimum=np.zeros(4))

    def test_rejects_negative_offset(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            QuadraticBowl(2, offset=-1.0)

    def test_init_params_far_from_optimum(self, rng):
        bowl = QuadraticBowl(8)
        x0 = bowl.init_params(rng)
        assert bowl.distance_to_optimum(x0) > 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"curvature": float("nan")},
            {"curvature": float("inf")},
            {"offset": float("nan")},
            {"offset": float("inf")},
            {"optimum": np.array([0.0, float("nan"), 0.0])},
            {"optimum": np.array([float("-inf"), 0.0, 0.0])},
        ],
    )
    def test_rejects_non_finite_knobs(self, kwargs):
        with pytest.raises(ConfigurationError, match="finite"):
            QuadraticBowl(3, **kwargs)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_estimator_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ConfigurationError, match="sigma must be finite"):
            QuadraticBowl(3).as_estimator(sigma=sigma)

    def test_rejects_non_finite_curvature_matrix_as_such(self):
        matrix = np.eye(2)
        matrix[1, 0] = matrix[0, 1] = float("inf")
        with pytest.raises(ConfigurationError, match="must be finite"):
            QuadraticBowl(2, curvature=matrix)


def _dense_reference(bowl, c, params):
    """The dense ``A = c·I`` formulas the scalar path must reproduce."""
    dimension = bowl.dimension
    delta = params - bowl.optimum
    matrix = c * np.eye(dimension)
    return matrix @ delta, float(0.5 * delta @ matrix @ delta + bowl.offset)


# Bounded so that ``c·δ²`` summed over 64 coordinates cannot overflow.
_COORDINATE = st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False)


class TestScalarCurvatureMatchesDense:
    """A scalar curvature is held as a float, never as ``c·I``; its
    results must equal the dense product element for element."""

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        dimension=st.integers(1, 64),
        c=st.floats(1e-50, 1e50, allow_nan=False, allow_infinity=False),
        offset=st.floats(0.0, 1e100, allow_nan=False, allow_infinity=False),
    )
    def test_matches_dense_reference(self, data, dimension, c, offset):
        vector = st.lists(_COORDINATE, min_size=dimension, max_size=dimension)
        optimum = np.asarray(data.draw(vector), dtype=np.float64)
        params = np.asarray(data.draw(vector), dtype=np.float64)
        bowl = QuadraticBowl(dimension, curvature=c, optimum=optimum, offset=offset)
        gradient, value = _dense_reference(bowl, c, params)
        assert np.array_equal(bowl.exact_gradient(params), gradient)
        assert bowl.value(params) == value

    @pytest.mark.parametrize("c", [1.0, 0.37, 2.5e3])
    def test_matches_dense_reference_at_d1000(self, c):
        rng = np.random.default_rng(7)
        bowl = QuadraticBowl(
            1000, curvature=c, optimum=rng.normal(0.0, 3.0, 1000), offset=0.25
        )
        for _ in range(3):
            params = rng.normal(0.0, 10.0, 1000)
            gradient, value = _dense_reference(bowl, c, params)
            assert np.array_equal(bowl.exact_gradient(params), gradient)
            assert bowl.value(params) == value

    def test_curvature_keeps_the_given_form(self):
        assert QuadraticBowl(3, curvature=2).curvature == 2.0
        assert isinstance(QuadraticBowl(3, curvature=2).curvature, float)
        matrix = np.diag([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(
            QuadraticBowl(3, curvature=matrix).curvature, matrix
        )

    def test_memory_is_linear_in_dimension(self):
        """A dense ``c·I`` at d = 10⁶ would need 8 TB."""
        dimension = 10**6
        bowl = QuadraticBowl(dimension)
        params = np.ones(dimension)
        gradient = bowl.exact_gradient(params)
        assert gradient.shape == (dimension,)
        assert np.array_equal(gradient, params)
        assert bowl.value(params) == 0.5 * dimension

    def test_infinite_coordinate_stays_local(self):
        """Documented change: the dense matvec turned every coordinate
        into NaN through ``0 · inf``; the scalar path keeps the others."""
        params = np.array([1.0, np.inf, -2.0, 0.0])
        gradient = QuadraticBowl(4, curvature=3.0).exact_gradient(params)
        np.testing.assert_array_equal(gradient, [3.0, np.inf, -6.0, 0.0])


class TestNonFiniteHalt:
    """The non-finite guard trips at the same round with the same
    message in the loop and the batched executors."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_halt_identical_across_executors(self, value):
        def build():
            return build_quadratic_simulation(
                QuadraticBowl(6),
                aggregator=Average(),
                num_workers=7,
                num_byzantine=2,
                sigma=0.1,
                attack=make_attack("non-finite", {"value": value}),
                halt_on_nonfinite=True,
                seed=0,
            )

        with pytest.raises(SimulationError, match="non-finite") as loop_err:
            build().run(5)
        with pytest.raises(SimulationError, match="non-finite") as batched_err:
            BatchedSimulation([build()]).run(5)
        assert str(loop_err.value) == str(batched_err.value)


class TestBlockGradient:
    """A ``(..., d)`` block of parameter rows gives each row's gradient,
    bit for bit the one-row call, for both curvature forms."""

    @staticmethod
    def _bowls(rng, dimension):
        factor = rng.standard_normal((dimension, dimension))
        dense = factor @ factor.T + dimension * np.eye(dimension)
        optimum = rng.normal(0.0, 3.0, dimension)
        return (
            QuadraticBowl(dimension, curvature=0.37, optimum=optimum),
            QuadraticBowl(dimension, curvature=dense, optimum=optimum),
        )

    @pytest.mark.parametrize("dimension", [1, 2, 5, 100, 200])
    @pytest.mark.parametrize("shape", [(1,), (7,), (2, 3)])
    def test_rows_equal_one_row_calls(self, rng, dimension, shape):
        block = rng.normal(0.0, 10.0, shape + (dimension,))
        block.reshape(-1, dimension)[0, 0] = np.inf
        for bowl in self._bowls(rng, dimension):
            with np.errstate(invalid="ignore"):
                gradients = bowl.exact_gradient(block)
                assert gradients.shape == block.shape
                for index in np.ndindex(shape):
                    want = bowl.exact_gradient(block[index])
                    assert gradients[index].tobytes() == want.tobytes()

    def test_estimator_declares_block_evaluation(self):
        assert QuadraticBowl(3).as_estimator(0.5).row_blocks
