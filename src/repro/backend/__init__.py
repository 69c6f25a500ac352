"""Pluggable array backends for the batched kernel layer.

The batched aggregation kernels (:mod:`repro.core.batched` and the
primitives under them) are pure tensor programs; this package is the
seam that lets them run on more than one array library:

* :class:`ArrayBackend` — the abstract namespace kernels are allowed to
  use (``asarray``/``einsum``/``sort``/``partition``/``where``/...,
  dtype and device handles, an ``errstate`` equivalent);
* :class:`NumpyBackend` — the reference implementation, a pure
  delegation to numpy that anchors the engine's bit-for-bit
  loop/batched differential guarantee;
* ``"torch"`` — an import-guarded accelerator backend, parity-tested
  against numpy at float64 tolerance (requires the optional ``[torch]``
  dependency extra);
* a name-based :class:`~repro.utils.registry.Registry`
  (``register_backend`` / ``available_backends`` / ``make_backend``).

Selection is threaded end to end: ``run_grid(grid, backend="torch")``,
``BatchedSimulation(sims, backend=...)`` and the CLI's ``--backend``
flag all resolve through :func:`resolve_backend`.
"""

from repro.backend.base import ArrayBackend
from repro.backend.numpy_backend import NumpyBackend
from repro.backend.registry import (
    available_backends,
    backend_factory,
    backend_installed,
    default_backend,
    make_backend,
    register_backend,
    resolve_backend,
)

__all__ = [
    "ArrayBackend",
    "NumpyBackend",
    "register_backend",
    "available_backends",
    "backend_factory",
    "backend_installed",
    "make_backend",
    "resolve_backend",
    "default_backend",
]
