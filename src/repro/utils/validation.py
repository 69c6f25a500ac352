"""Argument validation helpers shared across the library.

All validators raise exceptions from :mod:`repro.exceptions` so that user
errors surface as ``ReproError`` subclasses with actionable messages.
"""

from __future__ import annotations

import functools
import inspect

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    DimensionMismatchError,
    InvalidVectorError,
)

__all__ = [
    "check_positive_int",
    "check_probability",
    "check_finite",
    "check_vector_stack",
    "check_class_labels",
    "check_factory_kwargs",
]


def check_positive_int(value: int, name: str, *, minimum: int = 1) -> int:
    """Validate that ``value`` is an integer ``>= minimum`` and return it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_probability(value: float, name: str) -> float:
    """Validate that ``value`` lies in [0, 1] and return it as a float."""
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{name} must be a number in [0, 1], got {value!r}") from exc
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must lie in [0, 1], got {value}")
    return value


def check_finite(array: np.ndarray, name: str) -> np.ndarray:
    """Validate that every entry of ``array`` is finite and return it."""
    array = np.asarray(array)
    if not np.all(np.isfinite(array)):
        bad = int(np.size(array) - np.count_nonzero(np.isfinite(array)))
        raise InvalidVectorError(f"{name} contains {bad} non-finite entries (NaN or Inf)")
    return array


def check_vector_stack(
    vectors: np.ndarray,
    name: str = "vectors",
    *,
    require_finite: bool = True,
) -> np.ndarray:
    """Validate and normalize a stack of proposal vectors.

    Aggregation rules operate on an ``(n, d)`` float matrix: one row per
    worker proposal.  This accepts anything array-like of that shape,
    promotes to ``float64``, and optionally rejects non-finite entries.
    """
    array = np.asarray(vectors, dtype=np.float64)
    if array.ndim != 2:
        raise DimensionMismatchError(
            f"{name} must be a 2-d array of shape (n, d), got shape {array.shape}"
        )
    if array.shape[0] == 0 or array.shape[1] == 0:
        raise DimensionMismatchError(
            f"{name} must contain at least one vector of dimension >= 1, got shape {array.shape}"
        )
    if require_finite:
        check_finite(array, name)
    return array


def check_class_labels(targets: np.ndarray, num_classes: int) -> np.ndarray:
    """Validate class labels in ``[0, num_classes)`` and return them as int64.

    Integer (and boolean) labels skip the integrality scan.  Float labels
    must be finite whole numbers: ``1.7`` or NaN raises instead of being
    truncated by the int64 cast.
    """
    targets = np.asarray(targets)
    if targets.dtype.kind not in "biu":
        values = targets.astype(np.float64)
        bad = ~(np.isfinite(values) & (np.floor(values) == values))
        if bad.any():
            raise DimensionMismatchError(
                f"labels must be finite integral class indices, got "
                f"{int(bad.sum())} other value(s), e.g. {values[bad][0]}"
            )
    targets = targets.astype(np.int64)
    if targets.min(initial=0) < 0 or targets.max(initial=0) >= num_classes:
        raise DimensionMismatchError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{targets.min()}, {targets.max()}]"
        )
    return targets


def check_factory_kwargs(
    kind: str, name: str, factory, kwargs: dict
) -> None:
    """Validate ``kwargs`` against ``factory``'s signature before calling.

    Used by :class:`~repro.utils.registry.Registry`: arguments
    that do not bind — unknown names, missing required parameters —
    raise :class:`ConfigurationError` naming the entry and the
    parameters its factory accepts, instead of leaking the factory's raw
    ``TypeError``.  Factories without an introspectable signature are
    let through for the call itself to check.  Signatures are cached per
    factory: a grid builds the same few factories thousands of times.
    """
    try:
        signature = _factory_signature(factory)
    except TypeError:  # an unhashable callable: not cached
        signature = _factory_signature.__wrapped__(factory)
    if signature is None:
        return
    try:
        signature.bind(**kwargs)
    except TypeError as error:
        accepted = ", ".join(signature.parameters) or "none"
        raise ConfigurationError(
            f"invalid arguments for {kind} {name!r}: {error}; "
            f"accepted parameters: {accepted}"
        ) from error


@functools.lru_cache(maxsize=1024)
def _factory_signature(factory) -> inspect.Signature | None:
    try:
        return inspect.signature(factory)
    except (TypeError, ValueError):
        return None
