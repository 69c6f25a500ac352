"""One name-based registry for every pluggable component family.

A scenario names each of its components — the aggregation rule, the
attack, the workload, the array backend, the delay schedule, the server
attack, the topology, a lint rule — as a registry name plus keyword
arguments, and a :class:`Registry` instance per family turns that pair
into an object.  Every family shares one contract:

* names are non-empty strings and factories are callables; a later
  registration under the same name overrides the earlier one;
* an unknown name raises :class:`ConfigurationError` listing the sorted
  available names;
* keyword arguments that do not bind to the factory's signature raise
  :class:`ConfigurationError` naming the entry and the parameters it
  accepts (chaining the binding ``TypeError``), instead of leaking the
  factory's raw ``TypeError``;
* for families with an optional arm (no attack, no delay, ...), a
  ``None`` name stands for "absent" and kwargs without a name are
  rejected.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Mapping
from typing import Generic, TypeVar

from repro.exceptions import ConfigurationError
from repro.utils.validation import check_factory_kwargs

__all__ = ["Registry"]

T = TypeVar("T")


class Registry(Generic[T]):
    """Name -> factory table for one component ``kind`` (e.g. ``"attack"``).

    ``kind`` is the noun every error message uses.  Families export the
    bound methods under their historical names, e.g.
    ``make_topology = TOPOLOGIES.make``.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._factories: dict[str, Callable[..., T]] = {}

    def register(self, name: str, factory: Callable[..., T]) -> None:
        """Register ``factory`` under ``name``; later registrations
        override (so a deployment can swap in its own variant)."""
        if not name or not isinstance(name, str):
            raise ConfigurationError(
                f"{self.kind} name must be a non-empty string, got {name!r}"
            )
        if not callable(factory):
            raise ConfigurationError(
                f"{self.kind} {name!r} factory must be callable, got "
                f"{factory!r}"
            )
        self._factories[name] = factory

    def names(self) -> list[str]:
        """Sorted list of registered names."""
        return sorted(self._factories)

    def factory(self, name: str) -> Callable[..., T]:
        """The registered factory for ``name`` (for signature introspection)."""
        if name not in self._factories:
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; available: {self.names()}"
            )
        return self._factories[name]

    def check(
        self, name: str, kwargs: Mapping[str, object] | None = None
    ) -> None:
        """Validate ``(name, kwargs)`` without building anything."""
        factory = self.factory(name)
        check_factory_kwargs(self.kind, name, factory, dict(kwargs or {}))

    def make(
        self, name: str, kwargs: Mapping[str, object] | None = None
    ) -> T:
        """Build the entry ``name`` from ``kwargs``, e.g.
        ``TOPOLOGIES.make("ring", {"degree": 4})``."""
        factory = self.factory(name)
        resolved = dict(kwargs or {})
        check_factory_kwargs(self.kind, name, factory, resolved)
        return factory(**resolved)

    def accepts(self, name: str, param: str) -> bool:
        """Whether ``name``'s factory takes keyword ``param`` (False when
        its signature is not introspectable)."""
        factory = self.factory(name)
        try:
            signature = inspect.signature(factory)
        except (TypeError, ValueError):
            return False
        return param in signature.parameters

    def check_optional(
        self, name: str | None, kwargs: Mapping[str, object] | None = None
    ) -> None:
        """:meth:`check` with a ``None`` arm: ``name=None`` means the
        component is absent, which takes no kwargs."""
        if name is not None:
            self.check(name, kwargs)
        elif kwargs:
            raise ConfigurationError(
                f"{self.kind} kwargs {dict(kwargs)!r} were given without a "
                f"name"
            )

    def make_optional(
        self, name: str | None, kwargs: Mapping[str, object] | None = None
    ) -> T | None:
        """:meth:`make` with the ``None`` arm of :meth:`check_optional`:
        ``name=None`` returns ``None``."""
        if name is None:
            self.check_optional(None, kwargs)
            return None
        return self.make(name, kwargs)
