"""Name-based backend factory.

A caller names a backend ("numpy", "torch") plus keyword arguments and
gets an :class:`~repro.backend.base.ArrayBackend`, with the shared
:class:`~repro.utils.registry.Registry` contract.

``"torch"`` is always *registered*; whether it is *installed* is a
property of the environment, surfaced by :func:`backend_installed` (the
CI torch leg and the engine benchmarks key off it) and by the
ConfigurationError ``make_backend("torch")`` raises on a torch-less
install.
"""

from __future__ import annotations

from repro.backend.base import ArrayBackend
from repro.backend.numpy_backend import NumpyBackend
from repro.exceptions import ConfigurationError
from repro.utils.registry import Registry

__all__ = [
    "BACKENDS",
    "register_backend",
    "available_backends",
    "backend_factory",
    "backend_installed",
    "make_backend",
    "resolve_backend",
    "default_backend",
]

BACKENDS: Registry[ArrayBackend] = Registry("backend")

register_backend = BACKENDS.register
available_backends = BACKENDS.names
backend_factory = BACKENDS.factory
make_backend = BACKENDS.make


def backend_installed(name: str) -> bool:
    """Whether ``name``'s default configuration can actually be built in
    this environment (False e.g. for "torch" without the ``[torch]``
    extra installed).  Unknown names still raise
    :class:`ConfigurationError` — not knowing a name is a caller bug,
    not an environment property."""
    factory = backend_factory(name)
    try:
        factory()
    except ConfigurationError:
        return False
    return True


# The engine's default: the reference numpy backend at float64 — the
# configuration the bit-for-bit differential guarantee is stated in.
# One shared instance (backends are stateless) so the hot paths skip
# re-construction.
_DEFAULT: NumpyBackend = NumpyBackend()


def default_backend() -> ArrayBackend:
    """The process-wide default backend (numpy, float64)."""
    return _DEFAULT


def resolve_backend(
    backend: ArrayBackend | str | None,
) -> ArrayBackend:
    """Normalize the ``backend=`` argument every kernel entry point takes.

    ``None`` → the default numpy/float64 backend; a string → the
    registry (default configuration); an :class:`ArrayBackend` instance
    passes through — so callers can thread a configured backend (e.g.
    ``TorchBackend(device="cuda:1")``) once and forget about it.
    """
    if backend is None:
        return _DEFAULT
    if isinstance(backend, ArrayBackend):
        return backend
    if isinstance(backend, str):
        return make_backend(backend)
    raise ConfigurationError(
        f"backend must be None, a registered backend name, or an "
        f"ArrayBackend instance, got {backend!r}"
    )


def _torch_factory(dtype: str = "float64", device: str = "cpu") -> ArrayBackend:
    """Lazy ``"torch"`` factory: the torch import happens here, not at
    library load, so a numpy-only install never pays for (or breaks on)
    the optional dependency."""
    try:
        from repro.backend.torch_backend import TorchBackend
    except ImportError as error:
        raise ConfigurationError(
            "backend 'torch' requires the optional torch dependency "
            "(install the '[torch]' extra, e.g. pip install "
            "'repro-byzantine-sgd[torch]'); registered backends: "
            f"{available_backends()}"
        ) from error
    return TorchBackend(dtype=dtype, device=device)


register_backend("numpy", NumpyBackend)
register_backend("torch", _torch_factory)
