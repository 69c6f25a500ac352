"""Name-based server-attack factory.

A scenario names a server-side broadcast corruption
("sign-flip-broadcast", "stale-replay-broadcast", ...) plus keyword
arguments, and the registry builds the
:class:`~repro.servers.attacks.ServerAttack`; ``None`` is the
attack-free tier.

:func:`register_batched_corrupt` registers the stateless, rng-free
attacks whose ``corrupt_batch`` the executors call once per round for
all the tier cells of one attack configuration; dispatch is by exact
type, so a subclass that overrides ``corrupt`` corrupts per cell.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError
from repro.servers.attacks import ServerAttack
from repro.utils.registry import Registry

__all__ = [
    "SERVER_ATTACKS",
    "register_server_attack",
    "available_server_attacks",
    "server_attack_factory",
    "make_server_attack",
    "register_batched_corrupt",
    "has_batched_corrupt",
    "batched_corrupt_names",
]

SERVER_ATTACKS: Registry[ServerAttack] = Registry("server attack")

register_server_attack = SERVER_ATTACKS.register
available_server_attacks = SERVER_ATTACKS.names
server_attack_factory = SERVER_ATTACKS.factory
make_server_attack = SERVER_ATTACKS.make_optional

_BATCHED_CORRUPTS: set[type] = set()


def register_batched_corrupt(attack_type: type) -> None:
    """Register ``attack_type``'s own ``corrupt_batch(params,
    num_byzantine)``: slice ``b`` of its output must equal ``corrupt``
    of row ``b`` bit for bit, without drawing from the attack stream."""
    if not (isinstance(attack_type, type) and issubclass(attack_type, ServerAttack)):
        raise ConfigurationError(
            f"attack_type must be a ServerAttack class, got {attack_type!r}"
        )
    if "corrupt_batch" not in vars(attack_type):
        raise ConfigurationError(
            f"{attack_type.__name__} does not define its own corrupt_batch"
        )
    _BATCHED_CORRUPTS.add(attack_type)


def has_batched_corrupt(attack: ServerAttack) -> bool:
    """Whether ``attack`` corrupts through its registered
    ``corrupt_batch``: its exact type is registered and it keeps no
    per-run state."""
    return type(attack) in _BATCHED_CORRUPTS and not attack.stateful


def batched_corrupt_names() -> list[str]:
    """Sorted class names of the attacks with a registered corrupt_batch."""
    return sorted(cls.__name__ for cls in _BATCHED_CORRUPTS)


def _register_builtins() -> None:
    from repro.servers.attacks import (
        RandomNoiseBroadcastAttack,
        SignFlipBroadcastAttack,
        StaleReplayBroadcastAttack,
    )

    register_server_attack("sign-flip-broadcast", SignFlipBroadcastAttack)
    register_server_attack("stale-replay-broadcast", StaleReplayBroadcastAttack)
    register_server_attack("random-noise-broadcast", RandomNoiseBroadcastAttack)
    register_batched_corrupt(SignFlipBroadcastAttack)


_register_builtins()
