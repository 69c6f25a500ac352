"""Tests for repro.utils.validation."""

import inspect

import numpy as np
import pytest

from repro.exceptions import (
    ConfigurationError,
    DimensionMismatchError,
    InvalidVectorError,
)
from repro.utils.validation import (
    check_class_labels,
    check_factory_kwargs,
    check_finite,
    check_positive_int,
    check_probability,
    check_vector_stack,
)


class TestCheckPositiveInt:
    def test_accepts_valid(self):
        assert check_positive_int(3, "x") == 3

    def test_accepts_numpy_int(self):
        assert check_positive_int(np.int64(4), "x") == 4

    def test_minimum_zero(self):
        assert check_positive_int(0, "x", minimum=0) == 0

    def test_rejects_below_minimum(self):
        with pytest.raises(ConfigurationError, match="must be >= 1"):
            check_positive_int(0, "x")

    def test_rejects_float(self):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            check_positive_int(1.5, "x")

    def test_rejects_bool(self):
        with pytest.raises(ConfigurationError):
            check_positive_int(True, "x")

    def test_error_names_parameter(self):
        with pytest.raises(ConfigurationError, match="num_workers"):
            check_positive_int(-1, "num_workers")


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_valid(self, value):
        assert check_probability(value, "p") == value

    @pytest.mark.parametrize("value", [-0.01, 1.01, 5])
    def test_rejects_out_of_range(self, value):
        with pytest.raises(ConfigurationError):
            check_probability(value, "p")

    def test_rejects_non_numeric(self):
        with pytest.raises(ConfigurationError):
            check_probability("half", "p")


class TestCheckFinite:
    def test_accepts_finite(self):
        arr = np.array([1.0, -2.0, 3.5])
        result = check_finite(arr, "v")
        np.testing.assert_array_equal(result, arr)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InvalidVectorError, match="non-finite"):
            check_finite(np.array([1.0, bad]), "v")


class TestCheckVectorStack:
    def test_valid_stack(self):
        stack = check_vector_stack([[1, 2], [3, 4]])
        assert stack.dtype == np.float64
        assert stack.shape == (2, 2)

    def test_rejects_1d(self):
        with pytest.raises(DimensionMismatchError):
            check_vector_stack(np.ones(3))

    def test_rejects_3d(self):
        with pytest.raises(DimensionMismatchError):
            check_vector_stack(np.ones((2, 2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatchError):
            check_vector_stack(np.zeros((0, 3)))

    def test_rejects_zero_dim(self):
        with pytest.raises(DimensionMismatchError):
            check_vector_stack(np.zeros((3, 0)))

    def test_rejects_nan_by_default(self):
        with pytest.raises(InvalidVectorError):
            check_vector_stack([[1.0, np.nan]])

    def test_allows_nan_when_requested(self):
        stack = check_vector_stack([[1.0, np.nan]], require_finite=False)
        assert np.isnan(stack[0, 1])


class TestCheckClassLabels:
    @pytest.mark.parametrize(
        "labels", [[0, 2, 1], [0.0, 2.0, 1.0], [True, False, True]], ids=str
    )
    def test_returns_int64(self, labels):
        out = check_class_labels(np.array(labels), 3)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, np.array(labels).astype(np.int64))

    def test_accepts_empty(self):
        assert check_class_labels(np.zeros(0), 3).shape == (0,)

    @pytest.mark.parametrize("bad", [0.5, 2.0000001, np.nan, np.inf])
    def test_rejects_non_integral(self, bad):
        with pytest.raises(DimensionMismatchError, match="1 other value"):
            check_class_labels(np.array([1.0, bad]), 3)


def _factory(target, *, scale=1.0):
    return target, scale


class _Unhashable:
    """A callable instance that cannot key a cache."""

    __hash__ = None

    def __call__(self, target):
        return target


class TestCheckFactoryKwargs:
    """Signatures are cached per factory; the messages are unchanged,
    however often a factory is checked."""

    @pytest.mark.parametrize("repeat", [1, 3])
    def test_unknown_kwarg_message(self, repeat):
        for _ in range(repeat):
            with pytest.raises(ConfigurationError) as excinfo:
                check_factory_kwargs("attack", "demo", _factory, {"target": 1, "bogus": 2})
            assert str(excinfo.value) == (
                "invalid arguments for attack 'demo': got an unexpected "
                "keyword argument 'bogus'; accepted parameters: target, scale"
            )
            assert isinstance(excinfo.value.__cause__, TypeError)

    @pytest.mark.parametrize("repeat", [1, 3])
    def test_missing_kwarg_message(self, repeat):
        for _ in range(repeat):
            with pytest.raises(ConfigurationError) as excinfo:
                check_factory_kwargs("topology", "demo", _factory, {"scale": 2.0})
            assert str(excinfo.value) == (
                "invalid arguments for topology 'demo': missing a required "
                "argument: 'target'; accepted parameters: target, scale"
            )

    def test_binding_kwargs_pass(self):
        check_factory_kwargs("attack", "demo", _factory, {"target": 1})
        check_factory_kwargs("attack", "demo", _factory, {"target": 1, "scale": 2})

    def test_factory_without_signature_passes_through(self):
        with pytest.raises(ValueError):
            inspect.signature(dict)
        for _ in range(2):
            check_factory_kwargs("attack", "demo", dict, {"anything": 1})

    def test_unhashable_factory_is_still_checked(self):
        factory = _Unhashable()
        check_factory_kwargs("attack", "demo", factory, {"target": 1})
        with pytest.raises(ConfigurationError, match="accepted parameters: target"):
            check_factory_kwargs("attack", "demo", factory, {"other": 1})

