"""Trainable parameter container."""

from __future__ import annotations

import numpy as np

__all__ = ["Parameter"]


class Parameter:
    """A trainable tensor together with the gradient of the current loss.

    ``grad`` has the shape of ``value``, behind the stack axes of a
    stacked pass; backward passes overwrite it (one backward per
    forward), and ``zero_grad`` resets it.
    """

    __slots__ = ("value", "grad", "name")

    def __init__(self, value: np.ndarray, name: str = "param"):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.value.shape)

    @property
    def size(self) -> int:
        return int(self.value.size)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.shape})"
