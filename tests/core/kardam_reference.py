"""Frozen per-slot Lipschitz filter of the Kardam rule.

:class:`ReferenceKardamFilter` is :class:`KardamFilter` with its
empirical-Lipschitz verdict in its original form: one
``np.linalg.norm`` pair and one ``.copy()`` pair per worker slot, the
previous proposals held in a dict keyed by slot, and the threshold from
``np.quantile`` over the accepted-coefficient window.  The library's
filter keeps the same loop on a sorted rate window, and
``tests/core/test_staleness.py`` pins it against this reference bit for
bit (keep verdicts and the window in arrival order).  Do not edit this
file to follow the library: it is the fixed point the window, and any
later rewrite of the loop, is checked against.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.staleness import KardamFilter

__all__ = ["ReferenceKardamFilter"]


class ReferenceKardamFilter(KardamFilter):
    """The Kardam filter with the per-slot Lipschitz loop."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Per worker slot: previous (proposal, params) observation, and
        # the accepted coefficients in a plain deque.
        self._previous: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._coefficients = deque(maxlen=self.window)

    def _lipschitz_keep(
        self,
        vectors: np.ndarray,
        used_params: np.ndarray,
        *,
        admissible: np.ndarray,
    ) -> np.ndarray:
        n = vectors.shape[0]
        keep = np.ones(n, dtype=bool)
        coefficients: list[tuple[int, float]] = []
        for i in range(n):
            previous = self._previous.get(i)
            if previous is not None:
                prev_vector, prev_params = previous
                displacement = float(
                    np.linalg.norm(used_params[i] - prev_params)
                )
                if displacement > 0.0:
                    rate = (
                        float(np.linalg.norm(vectors[i] - prev_vector))
                        / displacement
                    )
                    coefficients.append((i, rate))
        if coefficients and len(self._coefficients) > 0:
            threshold = float(
                np.quantile(
                    np.asarray(self._coefficients, dtype=np.float64),
                    self.lipschitz_quantile,
                )
            )
            for i, rate in coefficients:
                if rate > threshold:
                    keep[i] = False
        for i, rate in coefficients:
            if keep[i] and admissible[i] and np.isfinite(rate):
                self._coefficients.append(rate)
        for i in range(n):
            self._previous[i] = (vectors[i].copy(), used_params[i].copy())
        return keep
