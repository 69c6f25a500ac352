"""The numpy reference backend.

Every method is a direct delegation to the numpy call the kernels used
before the backend seam existed — same function, same arguments — so
routing a kernel through :class:`NumpyBackend` is numerically a no-op.
The engine's bit-for-bit loop/batched differential guarantee is anchored
here: ``tests/backend/test_numpy_exact.py`` asserts exact (``tobytes``)
equality between backend-routed kernels and their historical outputs,
and ``tests/engine/test_differential.py`` keeps enforcing the
loop/batched identity on top.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.backend.base import ArrayBackend
from repro.exceptions import ConfigurationError

__all__ = ["NumpyBackend"]

_FLOAT_DTYPES = {"float64": np.float64, "float32": np.float32}


class NumpyBackend(ArrayBackend):
    """numpy, presented through the :class:`ArrayBackend` namespace.

    ``dtype`` selects the floating precision every kernel tensor uses;
    ``"float64"`` (the default) is the reference configuration the
    differential suite pins bit-for-bit.
    """

    name = "numpy"

    def __init__(self, dtype: str = "float64"):
        if dtype not in _FLOAT_DTYPES:
            raise ConfigurationError(
                f"numpy backend dtype must be one of "
                f"{sorted(_FLOAT_DTYPES)}, got {dtype!r}"
            )
        self.float_dtype = np.dtype(_FLOAT_DTYPES[dtype])
        self.int_dtype = np.dtype(np.int64)
        self.bool_dtype = np.dtype(np.bool_)

    @property
    def numpy_float_dtype(self) -> np.dtype:
        return self.float_dtype

    @property
    def device(self) -> str:
        return "cpu"

    # -- creation & movement -------------------------------------------

    def asarray(self, x: Any, dtype: Any = None) -> np.ndarray:
        return np.asarray(x, dtype=self.float_dtype if dtype is None else dtype)

    def to_numpy(self, x: Any) -> np.ndarray:
        return np.asarray(x)

    def empty(self, shape: Sequence[int], dtype: Any = None) -> np.ndarray:
        return np.empty(shape, dtype=self.float_dtype if dtype is None else dtype)

    def zeros(self, shape: Sequence[int], dtype: Any = None) -> np.ndarray:
        return np.zeros(shape, dtype=self.float_dtype if dtype is None else dtype)

    def full(
        self, shape: Sequence[int], fill_value: Any, dtype: Any = None
    ) -> np.ndarray:
        return np.full(
            shape, fill_value, dtype=self.float_dtype if dtype is None else dtype
        )

    def arange(self, stop: int, dtype: Any = None) -> np.ndarray:
        return np.arange(stop, dtype=self.int_dtype if dtype is None else dtype)

    def copy(self, x: np.ndarray) -> np.ndarray:
        return np.copy(x)

    def astype(self, x: np.ndarray, dtype: Any) -> np.ndarray:
        return np.asarray(x).astype(dtype)

    # -- elementwise ---------------------------------------------------

    def where(self, condition, a, b) -> np.ndarray:
        return np.where(condition, a, b)

    def maximum(self, a, b) -> np.ndarray:
        return np.maximum(a, b)

    def minimum(self, a, b) -> np.ndarray:
        return np.minimum(a, b)

    def fmax(self, a, b) -> np.ndarray:
        return np.fmax(a, b)

    def abs(self, x) -> np.ndarray:
        return np.abs(x)

    def sqrt(self, x) -> np.ndarray:
        return np.sqrt(x)

    def isfinite(self, x) -> np.ndarray:
        return np.isfinite(x)

    # -- contractions --------------------------------------------------

    def einsum(self, subscripts: str, *operands) -> np.ndarray:
        return np.einsum(subscripts, *operands)

    def transpose(self, x, axes: Sequence[int]) -> np.ndarray:
        return np.transpose(x, axes)

    # -- reductions ----------------------------------------------------

    def sum(self, x, axis: int | None = None):
        return np.sum(x, axis=axis)

    def mean(self, x, axis: int | None = None):
        return np.mean(x, axis=axis)

    def median(self, x, axis: int):
        # Imported here: repro.utils.linalg imports this package.
        from repro.utils.linalg import coordinate_median

        return coordinate_median(x, axis)

    def max(self, x, axis: int | None = None):
        return np.max(x, axis=axis)

    def min(self, x, axis: int | None = None):
        return np.min(x, axis=axis)

    def any(self, x, axis: int | None = None):
        return np.any(x, axis=axis)

    def all(self, x, axis: int | None = None):
        return np.all(x, axis=axis)

    def count_nonzero(self, x, axis: int | None = None):
        return np.count_nonzero(x, axis=axis)

    def argmin(self, x, axis: int | None = None):
        return np.argmin(x, axis=axis)

    def argmax(self, x, axis: int | None = None):
        return np.argmax(x, axis=axis)

    def norm(self, x, axis: int | None = None):
        return np.linalg.norm(x, axis=axis)

    # -- ordering ------------------------------------------------------

    def sort(self, x, axis: int = -1) -> np.ndarray:
        return np.sort(x, axis=axis)

    def argsort(self, x, axis: int = -1, stable: bool = False) -> np.ndarray:
        return np.argsort(x, axis=axis, kind="stable" if stable else None)

    def partition(self, x, kth: int, axis: int = -1) -> np.ndarray:
        return np.partition(x, kth, axis=axis)

    def take_along_axis(self, x, indices, axis: int) -> np.ndarray:
        return np.take_along_axis(x, indices, axis=axis)

    # -- numerics control ----------------------------------------------

    def errstate(self):
        return np.errstate(invalid="ignore", over="ignore", divide="ignore")
