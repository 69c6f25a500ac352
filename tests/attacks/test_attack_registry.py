"""Tests for the attack registry.

The shared registry contract (unknown names, bad kwargs, name
validation, overrides, the ``None`` arm) is tested once for every
family in ``tests/utils/test_registry_contract.py``.
"""

import pytest

from repro.attacks.base import BenignAttack
from repro.attacks.random_noise import GaussianAttack
from repro.attacks.registry import (
    attack_factory,
    available_attacks,
    make_attack,
)
from repro.exceptions import ConfigurationError


class TestRegistryRoundTrip:
    def test_builtins_registered(self):
        names = available_attacks()
        for expected in ("benign", "gaussian", "omniscient", "sign-flip"):
            assert expected in names

    def test_make_by_name_with_kwargs(self):
        attack = make_attack("gaussian", {"sigma": 5.0})
        assert isinstance(attack, GaussianAttack)
        assert attack.sigma == 5.0

    def test_none_is_the_attack_free_arm(self):
        assert make_attack(None) is None

    def test_kwargs_without_a_name_are_rejected(self):
        # Regression: attack kwargs without a name used to be dropped
        # silently, while the delay and server-attack registries raised.
        with pytest.raises(ConfigurationError, match="without a"):
            make_attack(None, {"sigma": 1.0})

    def test_factory_lookup(self):
        assert attack_factory("benign") is BenignAttack


class TestCompositeRegistryEntry:
    """The "composite" entry builds mixed failure modes from plain data,
    resolving each (name, kwargs, count) part through the registry."""

    def test_builds_composite_from_part_triples(self):
        attack = make_attack(
            "composite",
            {
                "parts": (
                    ("crash", {}, 2),
                    ("sign-flip", {"scale": 8.0}, 1),
                )
            },
        )
        assert attack.name == "composite(2xcrash+1xsign-flip(scale=8))"

    def test_unknown_part_name_surfaces(self):
        with pytest.raises(ConfigurationError, match="unknown attack"):
            make_attack("composite", {"parts": (("quantum", {}, 1),)})

    def test_malformed_part_rejected(self):
        with pytest.raises(ConfigurationError, match="triples"):
            make_attack("composite", {"parts": (("crash", {}),)})

    def test_noninteger_count_rejected(self):
        with pytest.raises(ConfigurationError, match="integers"):
            make_attack("composite", {"parts": (("crash", {}, "two"),)})
        with pytest.raises(ConfigurationError, match="integers"):
            make_attack("composite", {"parts": (("crash", {}, 2.5),)})

    def test_noniterable_parts_rejected(self):
        with pytest.raises(ConfigurationError, match="sequence"):
            make_attack("composite", {"parts": 5})
