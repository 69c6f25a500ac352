"""Tests for the aggregator registry.

The shared registry contract (unknown names, bad kwargs, name
validation, overrides) is tested once for every family in
``tests/utils/test_registry_contract.py``.
"""

import numpy as np
import pytest

from repro.core.aggregator import Aggregator
from repro.core.registry import (
    available_aggregators,
    make_aggregator,
    register_aggregator,
)
from repro.exceptions import ConfigurationError


class TestRegistry:
    def test_builtin_rules_registered(self):
        names = available_aggregators()
        for expected in (
            "krum",
            "multi-krum",
            "average",
            "weighted-average",
            "closest-to-all",
            "minimal-diameter",
            "coordinate-median",
            "trimmed-mean",
            "geometric-median",
        ):
            assert expected in names

    def test_make_krum(self):
        rule = make_aggregator("krum", f=2)
        assert isinstance(rule, Aggregator)
        assert rule.f == 2

    def test_make_multikrum_with_kwargs(self):
        rule = make_aggregator("multi-krum", f=2, m=3)
        assert rule.m == 3

    def test_register_rejects_non_callable_factory(self):
        # Regression: a non-callable factory used to be accepted and
        # then leak a bare TypeError from make_aggregator.
        with pytest.raises(ConfigurationError, match="callable"):
            register_aggregator("not-callable-test", 5)
        assert "not-callable-test" not in available_aggregators()


class TestRegistryRoundTrip:
    """Every registered rule constructs, aggregates, and declares whether
    the engine has a batched kernel for it."""

    # Minimal constructor kwargs per rule for an (n, d) = (8, 3) stack.
    CONSTRUCTOR_KWARGS = {
        "kardam": {"f": 1},  # wraps krum by default
        "krum": {"f": 1},
        "multi-krum": {"f": 1, "m": 2},
        "bulyan": {"f": 1},  # needs n >= 4f + 3 = 7
        "average": {},
        "weighted-average": {"weights": [1.0] * 8},
        "closest-to-all": {},
        "minimal-diameter": {"f": 1},
        "coordinate-median": {},
        "trimmed-mean": {"f": 1},
        "geometric-median": {},
    }

    # Rules the engine aggregates through vectorized kernels; everything
    # else must still work via the per-scenario loop fallback.
    EXPECTED_BATCHED = {
        "krum",
        "multi-krum",
        "average",
        "closest-to-all",
        "coordinate-median",
        "trimmed-mean",
        "bulyan",
        "geometric-median",
        "kardam",
    }

    def test_kwargs_cover_every_registered_name(self):
        assert set(self.CONSTRUCTOR_KWARGS) == set(available_aggregators())

    def test_every_rule_constructs_and_aggregates(self, rng):
        from repro.core.batched import has_batched_kernel, make_batched_aggregator

        vectors = rng.standard_normal((8, 3))
        batched_names = set()
        for name in available_aggregators():
            rule = make_aggregator(name, **self.CONSTRUCTOR_KWARGS[name])
            out = rule.aggregate(vectors)
            assert out.shape == (3,), name
            assert np.all(np.isfinite(out)), name

            if has_batched_kernel(rule):
                batched_names.add(name)
            # Whether native or fallback, the adapter must replicate the
            # per-scenario result on a singleton batch.
            adapter = make_batched_aggregator(rule)
            batch_out = adapter.aggregate_batch(vectors[None])
            np.testing.assert_array_equal(batch_out.vectors[0], out)
        assert batched_names == self.EXPECTED_BATCHED

    def test_aggregator_factory_exposed(self):
        from repro.core.registry import aggregator_factory

        from repro.core.krum import Krum

        assert aggregator_factory("krum") is Krum
