"""Frozen sort-path coordinate median.

:func:`reference_coordinate_median` is ``repro.utils.linalg``'s
``coordinate_median`` as it was before small stacks took a selection
network: one ``np.sort``, ``np.mean`` of the middle order statistics,
and a NaN lane's last sorted entry.  ``tests/utils/test_median_network.py``
pins the library against it byte for byte, NaN payloads and signed
zeros included, as the benchmark digests hash them.  Do not edit this
file to follow the library: it is the fixed point the networks, and any
later rewrite of the median, are checked against.
"""

from __future__ import annotations

import numpy as np

__all__ = ["reference_coordinate_median"]


def reference_coordinate_median(x, axis: int):
    """``numpy.median(x, axis=axis)`` bit for bit, from one ``np.sort``
    rather than its partition that also probes ``-1`` for NaN lanes.

    ``np.mean`` of the middle order statistics is the reduction
    ``numpy.median`` applies (it reads a −0.0 median as +0.0); a lane
    whose last sorted entry is NaN takes that entry.  Needs
    ``x.shape[axis] >= 1``.
    """
    ordered = np.sort(x, axis=axis)
    n = ordered.shape[axis]
    middle = [slice(None)] * ordered.ndim
    middle[axis] = slice((n - 1) // 2, n // 2 + 1)
    with np.errstate(invalid="ignore"):  # -inf and +inf in the middle
        result = np.mean(ordered[tuple(middle)], axis=axis)
    last = ordered.take(-1, axis=axis)
    nans = np.isnan(last)
    if nans.any():
        if np.ndim(result) == 0:
            return last
        np.copyto(result, last, where=nans)
    return result
