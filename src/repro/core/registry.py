"""Name-based aggregator factory used by experiment configs and the CLI.

Keeps experiment configuration declarative: a config names a rule
("krum", "average", ...) plus keyword arguments, and the registry builds
the :class:`~repro.core.aggregator.Aggregator`.
"""

from __future__ import annotations

from repro.core.aggregator import Aggregator
from repro.utils.registry import Registry

__all__ = [
    "AGGREGATORS",
    "make_aggregator",
    "available_aggregators",
    "register_aggregator",
    "aggregator_factory",
]

AGGREGATORS: Registry[Aggregator] = Registry("aggregator")

register_aggregator = AGGREGATORS.register
available_aggregators = AGGREGATORS.names
aggregator_factory = AGGREGATORS.factory


def make_aggregator(name: str, **kwargs: object) -> Aggregator:
    """Build a rule by registry name, e.g. ``make_aggregator("krum", f=2)``."""
    return AGGREGATORS.make(name, kwargs)


def _kardam_factory(
    inner: str = "krum",
    inner_kwargs: dict | None = None,
    f: int | None = None,
    dampening: str = "inverse",
    gamma: float = 0.5,
    drop_above: int | None = None,
    lipschitz_quantile: float | None = None,
    window: int = 256,
    strict: bool = False,
):
    """Registry adapter for :class:`~repro.core.staleness.KardamFilter`.

    ``inner``/``inner_kwargs`` name the wrapped rule through this same
    registry.  ``f`` rides the scenario grid's Byzantine-count injection
    (the grid passes the cell's f to any factory accepting it) and is
    forwarded to the inner rule when *its* factory accepts an ``f`` —
    so ``("kardam", {"inner": "krum"})`` picks up the cell's f exactly
    like a bare ``("krum", {})`` entry would.  When the inner factory
    accepts ``f``, the filter also gets an ``inner_builder`` so its
    effective-``f`` degradation rebuilds the rule through this registry
    (preserving the cell's other inner kwargs); ``strict=True`` disables
    the degradation.
    """
    from repro.core.staleness import KardamFilter

    kwargs = dict(inner_kwargs or {})
    accepts_f = AGGREGATORS.accepts(inner, "f")
    if f is not None and "f" not in kwargs and accepts_f:
        kwargs["f"] = f
    inner_builder = None
    if accepts_f:
        inner_builder = lambda f_eff: make_aggregator(  # noqa: E731
            inner, **{**kwargs, "f": f_eff}
        )
    return KardamFilter(
        make_aggregator(inner, **kwargs),
        dampening=dampening,
        gamma=gamma,
        drop_above=drop_above,
        lipschitz_quantile=lipschitz_quantile,
        window=window,
        strict=strict,
        inner_builder=inner_builder,
    )


def _register_builtins() -> None:
    # Imported lazily to avoid a circular import at package load.
    from repro.baselines.average import Average, WeightedAverage
    from repro.baselines.distance_based import ClosestToAll
    from repro.baselines.majority import MinimalDiameterSubset
    from repro.baselines.medians import (
        CoordinateWiseMedian,
        GeometricMedian,
        TrimmedMean,
    )
    from repro.core.bulyan import Bulyan
    from repro.core.krum import Krum, MultiKrum

    register_aggregator("kardam", _kardam_factory)
    register_aggregator("krum", Krum)
    register_aggregator("multi-krum", MultiKrum)
    register_aggregator("bulyan", Bulyan)
    register_aggregator("average", Average)
    register_aggregator("weighted-average", WeightedAverage)
    register_aggregator("closest-to-all", ClosestToAll)
    register_aggregator("minimal-diameter", MinimalDiameterSubset)
    register_aggregator("coordinate-median", CoordinateWiseMedian)
    register_aggregator("trimmed-mean", TrimmedMean)
    register_aggregator("geometric-median", GeometricMedian)


_register_builtins()
