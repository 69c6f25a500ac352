"""Name-based server-attack factory.

A scenario names a server-side broadcast corruption
("sign-flip-broadcast", "stale-replay-broadcast", ...) plus keyword
arguments, and the registry builds the
:class:`~repro.servers.attacks.ServerAttack`; ``None`` is the
attack-free tier.
"""

from __future__ import annotations

from repro.servers.attacks import ServerAttack
from repro.utils.registry import Registry

__all__ = [
    "SERVER_ATTACKS",
    "register_server_attack",
    "available_server_attacks",
    "server_attack_factory",
    "make_server_attack",
]

SERVER_ATTACKS: Registry[ServerAttack] = Registry("server attack")

register_server_attack = SERVER_ATTACKS.register
available_server_attacks = SERVER_ATTACKS.names
server_attack_factory = SERVER_ATTACKS.factory
make_server_attack = SERVER_ATTACKS.make_optional


def _register_builtins() -> None:
    from repro.servers.attacks import (
        RandomNoiseBroadcastAttack,
        SignFlipBroadcastAttack,
        StaleReplayBroadcastAttack,
    )

    register_server_attack("sign-flip-broadcast", SignFlipBroadcastAttack)
    register_server_attack("stale-replay-broadcast", StaleReplayBroadcastAttack)
    register_server_attack("random-noise-broadcast", RandomNoiseBroadcastAttack)


_register_builtins()
