"""The ``ArrayBackend`` protocol — the namespace kernels may use.

The batched kernel layer (:mod:`repro.core.batched`,
:mod:`repro.core.bulyan`, the masked primitives of
:mod:`repro.utils.linalg` and the lock-step Weiszfeld solver of
:mod:`repro.baselines.medians`) is pure tensor arithmetic.  This module
pins down the *exact* array vocabulary those kernels are allowed to
speak, as an abstract class: a kernel receives an :class:`ArrayBackend`
instance (``xp`` by convention) and calls ``xp.einsum`` / ``xp.sort`` /
``xp.where`` / ... instead of ``np.*``.  Anything a kernel needs that is
not on this class is either added here (with a numpy *and* a torch
implementation) or does not belong in a kernel.

The kernel-author rule, enforced by review and by the parity suite in
``tests/backend/``: **inside a kernel, import the backend namespace,
never numpy.**  Plain Python indexing — basic and advanced slicing,
boolean-mask reads and writes, ``a[idx] = b`` scatter — plus the
arithmetic/comparison operators and ``@`` are shared by every supported
array library and remain fair game.

Method signatures follow numpy's conventions (``axis=`` keywords,
numpy argument order); non-numpy backends translate (e.g. torch's
``dim=``).  The reference implementation,
:class:`~repro.backend.numpy_backend.NumpyBackend`, delegates every
method to the identical numpy call, which is what re-anchors the
engine's loop/batched bit-for-bit differential guarantee to the numpy
backend: routing a kernel through it is a refactor-invariant, not a
numerical change.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from typing import Any

import numpy as np

__all__ = ["ArrayBackend"]

# Kernels index with python ints everywhere, so the handle types are
# intentionally opaque: a dtype is whatever the backend's own library
# uses (``np.dtype`` / ``torch.dtype``), threaded through untouched.
Array = Any
DType = Any


class ArrayBackend(ABC):
    """One array library, presented through numpy-shaped entry points.

    Instances are cheap, stateless and shareable; configuration
    (floating dtype, device) is fixed at construction so every array a
    backend creates lands on one device with one precision.  The float
    dtype defaults to ``float64`` on every backend — the precision the
    differential and parity guarantees are stated in.
    """

    #: Registry name of the backend family ("numpy", "torch", ...).
    name: str = ""

    # -- handles -------------------------------------------------------

    #: Native floating dtype handle every kernel tensor uses.
    float_dtype: DType
    #: Native integer dtype handle (worker indices, committees).
    int_dtype: DType
    #: Native boolean dtype handle (candidate masks).
    bool_dtype: DType

    #: Scalar +inf — the "never wins an argmin" sentinel of the masked
    #: kernels.  A plain Python float, valid in any backend expression.
    inf: float = float("inf")

    @property
    @abstractmethod
    def numpy_float_dtype(self) -> np.dtype:
        """The numpy dtype matching :attr:`float_dtype` — what host-side
        staging buffers (the engine's proposal tensor) allocate with so
        a non-default backend precision is not silently up-cast."""

    @property
    def eps(self) -> float:
        """Machine epsilon of :attr:`float_dtype` — the unit the
        Weiszfeld screen's floating-point error bounds are stated in."""
        return float(np.finfo(self.numpy_float_dtype).eps)

    @property
    @abstractmethod
    def device(self) -> str:
        """Human-readable device the backend computes on ("cpu", ...)."""

    def describe(self) -> str:
        """Resolved identity string, e.g. ``numpy[float64]`` or
        ``torch[float32,cuda:0]`` — what :class:`~repro.engine.GridResult`
        and the engine benchmarks report."""
        dtype = np.dtype(self.numpy_float_dtype).name
        device = self.device
        suffix = f",{device}" if device != "cpu" else ""
        return f"{self.name}[{dtype}{suffix}]"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()!r})"

    # -- creation & movement -------------------------------------------

    @abstractmethod
    def asarray(self, x: Any, dtype: DType | None = None) -> Array:
        """Convert to a backend array on the backend's device.
        ``dtype=None`` means :attr:`float_dtype` — kernels ingest floats
        unless they say otherwise."""

    @abstractmethod
    def to_numpy(self, x: Array) -> np.ndarray:
        """Materialize a backend array as a host numpy array (identity
        for numpy; device-to-host copy for accelerator backends)."""

    @abstractmethod
    def empty(self, shape: Sequence[int], dtype: DType | None = None) -> Array:
        """Uninitialized array (``dtype=None`` → :attr:`float_dtype`)."""

    @abstractmethod
    def zeros(self, shape: Sequence[int], dtype: DType | None = None) -> Array:
        """Zero-filled array (``dtype=None`` → :attr:`float_dtype`)."""

    @abstractmethod
    def full(
        self, shape: Sequence[int], fill_value: Any, dtype: DType | None = None
    ) -> Array:
        """Constant-filled array (``dtype=None`` → :attr:`float_dtype`)."""

    @abstractmethod
    def arange(self, stop: int, dtype: DType | None = None) -> Array:
        """``0..stop-1`` index vector (``dtype=None`` → :attr:`int_dtype`)."""

    @abstractmethod
    def copy(self, x: Array) -> Array:
        """An independent copy of ``x``."""

    @abstractmethod
    def astype(self, x: Array, dtype: DType) -> Array:
        """``x`` cast to ``dtype`` (used e.g. for 0/1 mask weights)."""

    # -- elementwise ---------------------------------------------------

    @abstractmethod
    def where(self, condition: Array, a: Any, b: Any) -> Array:
        """Elementwise select; scalar branches are promoted like numpy."""

    @abstractmethod
    def maximum(self, a: Any, b: Any) -> Array:
        """Elementwise max, NaN-propagating (numpy ``maximum``)."""

    @abstractmethod
    def minimum(self, a: Any, b: Any) -> Array:
        """Elementwise min, NaN-propagating (numpy ``minimum``)."""

    @abstractmethod
    def fmax(self, a: Any, b: Any) -> Array:
        """Elementwise max, NaN-ignoring (numpy ``fmax``) — the scale
        floors of the Weiszfeld convergence tests rely on it."""

    @abstractmethod
    def abs(self, x: Array) -> Array:
        """Elementwise absolute value."""

    @abstractmethod
    def sqrt(self, x: Array) -> Array:
        """Elementwise square root."""

    @abstractmethod
    def isfinite(self, x: Array) -> Array:
        """Elementwise finiteness mask."""

    # -- contractions --------------------------------------------------

    @abstractmethod
    def einsum(self, subscripts: str, *operands: Array) -> Array:
        """Einstein summation — the kernels' GEMM and masked-reduction
        workhorse."""

    @abstractmethod
    def transpose(self, x: Array, axes: Sequence[int]) -> Array:
        """Axis permutation (numpy ``transpose`` / torch ``permute``)."""

    # -- reductions (axis follows numpy semantics) ---------------------

    @abstractmethod
    def sum(self, x: Array, axis: int | None = None) -> Array:
        """Sum reduction."""

    @abstractmethod
    def mean(self, x: Array, axis: int | None = None) -> Array:
        """Mean reduction."""

    @abstractmethod
    def median(self, x: Array, axis: int) -> Array:
        """numpy-convention median: even counts average the two middle
        order statistics (torch's lower-median convention must NOT leak
        through this method) and a NaN in a lane makes that lane's
        median NaN.  The numpy backend returns ``numpy.median`` bit for
        bit, through :func:`repro.utils.linalg.coordinate_median`."""

    @abstractmethod
    def max(self, x: Array, axis: int | None = None) -> Array:
        """Max reduction (values only)."""

    @abstractmethod
    def min(self, x: Array, axis: int | None = None) -> Array:
        """Min reduction (values only)."""

    @abstractmethod
    def any(self, x: Array, axis: int | None = None) -> Array:
        """Boolean any-reduction."""

    @abstractmethod
    def all(self, x: Array, axis: int | None = None) -> Array:
        """Boolean all-reduction."""

    @abstractmethod
    def count_nonzero(self, x: Array, axis: int | None = None) -> Array:
        """Count of nonzero (True) entries."""

    @abstractmethod
    def argmin(self, x: Array, axis: int | None = None) -> Array:
        """Index of the first minimum — ties resolve to the smallest
        index on every backend (Krum's footnote-3 tie-break)."""

    @abstractmethod
    def argmax(self, x: Array, axis: int | None = None) -> Array:
        """Index of the first maximum."""

    @abstractmethod
    def norm(self, x: Array, axis: int | None = None) -> Array:
        """Euclidean (2-) norm along ``axis``."""

    # -- ordering ------------------------------------------------------

    @abstractmethod
    def sort(self, x: Array, axis: int = -1) -> Array:
        """Ascending sort; non-finite values order like numpy (NaN
        sorts to the high end)."""

    @abstractmethod
    def argsort(self, x: Array, axis: int = -1, stable: bool = False) -> Array:
        """Sort indices; ``stable=True`` guarantees numpy's
        ``kind="stable"`` tie order (selection rules depend on it)."""

    @abstractmethod
    def partition(self, x: Array, kth: int, axis: int = -1) -> Array:
        """Partial sort: the ``kth`` smallest values occupy the first
        ``kth+1`` slots (a full sort is a valid implementation)."""

    @abstractmethod
    def take_along_axis(self, x: Array, indices: Array, axis: int) -> Array:
        """Gather by per-slice indices (numpy ``take_along_axis``)."""

    # -- numerics control ----------------------------------------------

    @abstractmethod
    def errstate(self):
        """Context manager silencing the invalid/overflow/divide
        warnings the masked kernels deliberately provoke (inf - inf,
        1/0, ...).  Backends without numpy-style FP warnings return a
        null context."""
