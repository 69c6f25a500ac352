"""The server-attack registry: round-trips and parameter validation.

The shared registry contract (unknown names, bad kwargs, name
validation, overrides, the ``None`` arm) is tested once for every
family in ``tests/utils/test_registry_contract.py``.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.servers.attacks import ServerAttack, SignFlipBroadcastAttack
from repro.servers.registry import (
    available_server_attacks,
    make_server_attack,
)


class TestRegistryRoundTrip:
    def test_builtins_are_registered(self):
        assert available_server_attacks() == [
            "random-noise-broadcast",
            "sign-flip-broadcast",
            "stale-replay-broadcast",
        ]

    @pytest.mark.parametrize("name", available_server_attacks())
    def test_every_name_round_trips(self, name):
        attack = make_server_attack(name)
        assert isinstance(attack, ServerAttack)
        # Default-constructed names match the registry key (parameterized
        # variants append a suffix, e.g. "sign-flip-broadcast(scale=2.0)").
        assert attack.name.startswith(name)

    def test_kwargs_reach_the_factory(self):
        attack = make_server_attack("sign-flip-broadcast", {"scale": 2.0})
        assert isinstance(attack, SignFlipBroadcastAttack)
        assert attack.scale == 2.0
        assert attack.name == "sign-flip-broadcast(scale=2.0)"


class TestParameterValidation:
    @pytest.mark.parametrize(
        "name, kwargs",
        [
            ("sign-flip-broadcast", {"scale": 0.0}),
            ("stale-replay-broadcast", {"delay": 0}),
            ("stale-replay-broadcast", {"delay": 2.5}),
            ("stale-replay-broadcast", {"delay": True}),
            ("random-noise-broadcast", {"sigma": -1.0}),
        ],
    )
    def test_builtin_parameter_validation(self, name, kwargs):
        with pytest.raises(ConfigurationError):
            make_server_attack(name, kwargs)
