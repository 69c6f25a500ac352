"""Name-based attack factory shared by configs, the CLI and the engine.

A scenario names a strategy ("gaussian", "omniscient", ...) plus
keyword arguments, and the registry builds the
:class:`~repro.attacks.base.Attack`; ``None`` is the attack-free arm.
Only attacks expressible from plain data are registered — scalars, or
for ``"composite"`` a sequence of ``(name, kwargs, count)`` triples
resolved recursively — while strategies that need runtime objects
(models, data shards) are built directly by the benches that use them.

:func:`register_batched_craft` registers the attacks whose
``craft_batch`` the executors call once per round for all the cells of
one attack configuration, like the aggregation kernels of
:func:`~repro.core.batched.register_batched_kernel`; dispatch is by
exact type, so a subclass that overrides ``craft`` crafts per cell.  A
stateful one receives each cell's own instance in ``batch.attacks``.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.attacks.base import BATCH_READS, Attack
from repro.exceptions import ConfigurationError
from repro.utils.registry import Registry

__all__ = [
    "ATTACKS",
    "register_attack",
    "available_attacks",
    "attack_factory",
    "make_attack",
    "register_batched_craft",
    "has_batched_craft",
    "batched_craft_names",
]

ATTACKS: Registry[Attack] = Registry("attack")

register_attack = ATTACKS.register
available_attacks = ATTACKS.names
attack_factory = ATTACKS.factory
make_attack = ATTACKS.make_optional

_BATCHED_CRAFTS: set[type] = set()


def register_batched_craft(attack_type: type) -> None:
    """Register ``attack_type``'s own ``craft_batch``: slice ``b`` of its
    output must equal ``craft`` on cell ``b``'s context bit for bit, and
    it may read only the :data:`~repro.attacks.base.BATCH_READS` fields
    an :class:`~repro.attacks.base.AttackBatch` carries."""
    if not (isinstance(attack_type, type) and issubclass(attack_type, Attack)):
        raise ConfigurationError(
            f"attack_type must be an Attack class, got {attack_type!r}"
        )
    if "craft_batch" not in vars(attack_type):
        raise ConfigurationError(
            f"{attack_type.__name__} does not define its own craft_batch"
        )
    extra = set(attack_type.reads) - BATCH_READS
    if extra:
        raise ConfigurationError(
            f"{attack_type.__name__} reads {sorted(extra)}, which a batch "
            f"does not carry"
        )
    _BATCHED_CRAFTS.add(attack_type)


def has_batched_craft(attack: Attack) -> bool:
    """Whether ``attack`` crafts through its registered ``craft_batch``:
    its exact type is registered."""
    return type(attack) in _BATCHED_CRAFTS


def batched_craft_names() -> list[str]:
    """Sorted class names of the attacks with a registered craft_batch."""
    return sorted(cls.__name__ for cls in _BATCHED_CRAFTS)


def _composite_attack(parts) -> Attack:
    """Registry adapter for :class:`~repro.attacks.composite.CompositeAttack`.

    ``parts`` is a sequence of ``(attack_name, kwargs, count)`` triples,
    each resolved through this registry — so declarative scenario specs
    can express mixed failure modes, e.g.::

        ("composite", {"parts": (("crash", {}, 2),
                                 ("sign-flip", {"scale": 8.0}, 2))})
    """
    from repro.attacks.composite import CompositeAttack

    try:
        part_list = list(parts)
    except TypeError as error:
        raise ConfigurationError(
            f"composite parts must be a sequence of (name, kwargs, count) "
            f"triples, got {parts!r}"
        ) from error
    built: list[tuple[Attack, int]] = []
    for part in part_list:
        try:
            part_name, part_kwargs, count = part
        except (TypeError, ValueError) as error:
            raise ConfigurationError(
                f"composite parts must be (name, kwargs, count) triples, "
                f"got {part!r}"
            ) from error
        attack = ATTACKS.make(part_name, part_kwargs)
        if not isinstance(count, int) or isinstance(count, bool):
            raise ConfigurationError(
                f"composite part counts must be integers, got {count!r} "
                f"for {part_name!r}"
            )
        built.append((attack, count))
    return CompositeAttack(built)


def _probe_attack(
    inner: str = "sign-flip",
    inner_kwargs: Mapping[str, object] | None = None,
    *,
    grow: float = 2.0,
    shrink: float = 0.5,
    initial_scale: float = 1.0,
    min_scale: float = 1e-3,
    max_scale: float = 1e3,
) -> Attack:
    """Registry adapter for
    :class:`~repro.attacks.adaptive.DefenseProbingAttack`: the wrapped
    attack is named through this registry, e.g.
    ``("probe", {"inner": "little-is-enough"})``."""
    from repro.attacks.adaptive import DefenseProbingAttack

    return DefenseProbingAttack(
        ATTACKS.make(inner, inner_kwargs),
        grow=grow,
        shrink=shrink,
        initial_scale=initial_scale,
        min_scale=min_scale,
        max_scale=max_scale,
    )


def _probe_bandit_attack(
    inner: str = "sign-flip",
    inner_kwargs: Mapping[str, object] | None = None,
    *,
    arms: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0),
    exploration: float = 1.0,
) -> Attack:
    """Registry adapter for
    :class:`~repro.attacks.adaptive.BanditProbingAttack`: the wrapped
    attack is named through this registry, e.g.
    ``("probe-bandit", {"inner": "little-is-enough"})``."""
    from repro.attacks.adaptive import BanditProbingAttack

    return BanditProbingAttack(
        ATTACKS.make(inner, inner_kwargs), arms=arms, exploration=exploration
    )


def _register_builtins() -> None:
    # Imported lazily to avoid a circular import at package load.
    from repro.attacks.adaptive import (
        LipschitzMimicryAttack,
        StalenessGamingAttack,
    )
    from repro.attacks.base import BenignAttack
    from repro.attacks.collusion import CollusionAttack
    from repro.attacks.modern import InnerProductAttack, LittleIsEnoughAttack
    from repro.attacks.omniscient import OmniscientAttack
    from repro.attacks.random_noise import GaussianAttack
    from repro.attacks.simple import (
        CrashAttack,
        NonFiniteAttack,
        SignFlipAttack,
        StragglerAttack,
    )

    register_attack("benign", BenignAttack)
    register_attack("composite", _composite_attack)
    register_attack("gaussian", GaussianAttack)
    register_attack("sign-flip", SignFlipAttack)
    register_attack("crash", CrashAttack)
    register_attack("non-finite", NonFiniteAttack)
    register_attack("straggler", StragglerAttack)
    register_attack("collusion", CollusionAttack)
    register_attack("omniscient", OmniscientAttack)
    register_attack("little-is-enough", LittleIsEnoughAttack)
    register_attack("inner-product", InnerProductAttack)
    register_attack("staleness-gaming", StalenessGamingAttack)
    register_attack("lipschitz-mimicry", LipschitzMimicryAttack)
    register_attack("probe", _probe_attack)
    register_attack("probe-bandit", _probe_bandit_attack)

    for attack_type in (
        GaussianAttack,
        SignFlipAttack,
        OmniscientAttack,
        CrashAttack,
        NonFiniteAttack,
        LittleIsEnoughAttack,
        InnerProductAttack,
        StalenessGamingAttack,
        LipschitzMimicryAttack,
    ):
        register_batched_craft(attack_type)


_register_builtins()
