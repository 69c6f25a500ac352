"""Backend-registry round trips, installation probing and resolution.

The shared registry contract (unknown names, bad kwargs, name
validation, overrides) is tested once for every family in
``tests/utils/test_registry_contract.py``.
"""

from __future__ import annotations

import importlib.util

import numpy as np
import pytest

from repro.backend import (
    ArrayBackend,
    NumpyBackend,
    available_backends,
    backend_factory,
    backend_installed,
    default_backend,
    make_backend,
    register_backend,
    resolve_backend,
)
from repro.backend.registry import BACKENDS
from repro.exceptions import ConfigurationError

TORCH_PRESENT = importlib.util.find_spec("torch") is not None


@pytest.fixture
def scratch_registry(monkeypatch):
    """A private copy of the registry so tests can register freely."""
    monkeypatch.setattr(BACKENDS, "_factories", dict(BACKENDS._factories))


class TestBuiltins:
    def test_numpy_and_torch_are_registered(self):
        names = available_backends()
        assert "numpy" in names
        assert "torch" in names

    def test_numpy_is_always_installed(self):
        assert backend_installed("numpy")

    def test_torch_installed_matches_importability(self):
        assert backend_installed("torch") == TORCH_PRESENT

    def test_make_numpy_backend(self):
        backend = make_backend("numpy")
        assert isinstance(backend, NumpyBackend)
        assert backend.name == "numpy"
        assert backend.float_dtype == np.dtype(np.float64)
        assert backend.describe() == "numpy[float64]"
        assert backend.device == "cpu"

    def test_numpy_float32_configuration(self):
        backend = make_backend("numpy", {"dtype": "float32"})
        assert backend.float_dtype == np.dtype(np.float32)
        assert backend.numpy_float_dtype == np.dtype(np.float32)
        assert backend.describe() == "numpy[float32]"

    def test_default_backend_is_numpy_float64(self):
        backend = default_backend()
        assert isinstance(backend, NumpyBackend)
        assert backend.describe() == "numpy[float64]"


class TestErrorTaxonomy:
    def test_unknown_name_in_backend_installed(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            backend_installed("jax")

    def test_bad_dtype_value_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="dtype"):
            make_backend("numpy", {"dtype": "float16"})

    @pytest.mark.skipif(
        TORCH_PRESENT, reason="only meaningful without torch installed"
    )
    def test_torch_absent_raises_actionable_error(self):
        with pytest.raises(ConfigurationError) as excinfo:
            make_backend("torch")
        message = str(excinfo.value)
        assert "torch" in message
        assert "[torch]" in message  # points at the packaging extra

    def test_resolve_rejects_junk(self):
        with pytest.raises(ConfigurationError, match="backend must be"):
            resolve_backend(3.14)


class TestRoundTrip:
    def test_register_and_make(self, scratch_registry):
        class TracingBackend(NumpyBackend):
            name = "tracing"

            def __init__(self, dtype: str = "float64", label: str = "x"):
                super().__init__(dtype=dtype)
                self.label = label

        register_backend("tracing", TracingBackend)
        assert "tracing" in available_backends()
        assert backend_factory("tracing") is TracingBackend
        built = make_backend("tracing", {"label": "probe"})
        assert isinstance(built, TracingBackend)
        assert built.label == "probe"
        assert backend_installed("tracing")
        # And the shared kwargs contract applies to registered entries.
        with pytest.raises(ConfigurationError, match="tracing"):
            make_backend("tracing", {"nope": 1})


class TestResolve:
    def test_none_resolves_to_shared_default(self):
        assert resolve_backend(None) is resolve_backend(None)
        assert resolve_backend(None) is default_backend()

    def test_string_resolves_through_registry(self):
        assert isinstance(resolve_backend("numpy"), NumpyBackend)

    def test_instance_passes_through(self):
        backend = NumpyBackend(dtype="float32")
        assert resolve_backend(backend) is backend

    def test_namespace_is_fully_implemented_by_numpy(self):
        # Every abstract op of the protocol must be concrete on the
        # reference backend — a new op added to ArrayBackend without a
        # numpy implementation should fail here, not in a kernel.
        assert not getattr(NumpyBackend, "__abstractmethods__", None)
        assert isinstance(default_backend(), ArrayBackend)
