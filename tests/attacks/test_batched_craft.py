"""Batched crafts and declared context reads.

Each attack registered with ``register_batched_craft`` crafts all the
cells of one configuration in one ``craft_batch`` call, and slice ``b``
must equal ``craft`` on cell ``b``'s own context bit for bit — over
ties, NaN and ±inf honest rows, ``f = 0``, with and without the true
gradient and for every staleness pattern — with each cell's generator
left where its own craft leaves it.  ``PINNED`` lists the attack types
this file pins, and a registered craft without a pin fails here.

Every attack declares the context fields its ``craft`` reads
(``Attack.reads``); the executors build only those.  The sentinel test
crafts with every registered attack from a context whose undeclared
fields raise when read, and checks the result equals the craft from
the full context.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.attacks import (
    CrashAttack,
    GaussianAttack,
    InnerProductAttack,
    LinearHijackAttack,
    LittleIsEnoughAttack,
    NonFiniteAttack,
    OmniscientAttack,
    SignFlipAttack,
    StalenessGamingAttack,
)
from repro.attacks.base import CONTEXT_READS, Attack, AttackBatch, AttackContext
from repro.attacks.registry import (
    available_attacks,
    batched_craft_names,
    has_batched_craft,
    make_attack,
    register_batched_craft,
)
from repro.core.registry import make_aggregator
from repro.exceptions import ConfigurationError

NUM_WORKERS = 9

# NaN and ±inf rows make numpy warn on the arithmetic both paths share.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

#: Configurations per registered type; together they cover every
#: branch of each ``craft_batch``.
PINNED = {
    GaussianAttack: [GaussianAttack(), GaussianAttack(sigma=2.0, mean=0.5)],
    SignFlipAttack: [SignFlipAttack(), SignFlipAttack(scale=3.0)],
    OmniscientAttack: [
        OmniscientAttack(),
        OmniscientAttack(scale=2.5, compensate_average=True),
    ],
    CrashAttack: [CrashAttack()],
    NonFiniteAttack: [
        NonFiniteAttack(),
        NonFiniteAttack(float("inf")),
        NonFiniteAttack(float("-inf")),
    ],
    LittleIsEnoughAttack: [LittleIsEnoughAttack(), LittleIsEnoughAttack(z=1.5)],
    InnerProductAttack: [InnerProductAttack(), InnerProductAttack(epsilon=0.1)],
    StalenessGamingAttack: [
        StalenessGamingAttack(),
        StalenessGamingAttack(scale=2.0, dampening="none"),
        StalenessGamingAttack(dampening="exponential", gamma=0.7),
    ],
}


def _honest_rows(rng, cells: int, honest: int, dimension: int, kind: str):
    """``(cells, honest, d)`` proposals: Gaussian, with tied rows, or
    with NaN and ±inf coordinates."""
    rows = rng.normal(0.0, 3.0, size=(cells, honest, dimension))
    if kind == "ties" and honest > 1:
        rows[:, 1::2] = rows[:, :1]
        rows[:, :, 1] = 0.25
    elif kind == "nonfinite":
        rows[0, 0, 0] = np.nan
        rows[-1, -1, -1] = np.inf
        rows[cells // 2, 0, dimension // 2] = -np.inf
    return rows


def _context(batch: AttackBatch, cell: int, rng) -> AttackContext:
    """Cell ``cell``'s own context, as the per-cell craft receives it."""
    f = batch.num_byzantine
    return AttackContext(
        round_index=batch.round_index,
        params=None,
        honest_gradients=(
            None
            if batch.honest_gradients is None
            else batch.honest_gradients[cell].copy()
        ),
        byzantine_indices=np.arange(NUM_WORKERS - f, NUM_WORKERS),
        honest_indices=np.arange(NUM_WORKERS - f),
        num_workers=NUM_WORKERS,
        rng=rng,
        true_gradient=(
            None if batch.true_gradient is None else batch.true_gradient[cell].copy()
        ),
        byzantine_staleness=(
            None
            if batch.byzantine_staleness is None
            else batch.byzantine_staleness[cell].copy()
        ),
        dimension=batch.dimension,
    )


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("f", [0, 1, 3])
@pytest.mark.parametrize("kind", ["gaussian", "ties", "nonfinite"])
@pytest.mark.parametrize("true_gradient", [True, False], ids=["oracle", "hidden"])
@pytest.mark.parametrize("staleness", ["sync", "fresh", "equal", "mixed"])
@pytest.mark.parametrize(
    "attack",
    [attack for configs in PINNED.values() for attack in configs],
    ids=lambda attack: attack.name,
)
def test_craft_batch_slices_equal_crafts(
    attack, staleness, true_gradient, kind, f, seed
):
    data = np.random.default_rng([seed, f])
    cells, dimension = 5, 257 if seed else 6
    honest = NUM_WORKERS - f
    lags = {
        "sync": None,
        "fresh": np.zeros((cells, f), dtype=np.int64),
        "equal": np.full((cells, f), 3, dtype=np.int64),
        "mixed": data.integers(0, 5, size=(cells, f)),
    }[staleness]
    gradients = data.normal(0.0, 2.0, size=(cells, dimension))
    if kind == "nonfinite":
        gradients[1, 0] = np.nan
        gradients[2, -1] = -np.inf
    streams = [np.random.default_rng([seed, cell, 7]) for cell in range(cells)]
    replay = [np.random.default_rng([seed, cell, 7]) for cell in range(cells)]
    batch = AttackBatch(
        round_index=3,
        num_workers=NUM_WORKERS,
        num_byzantine=f,
        dimension=dimension,
        size=cells,
        rngs=tuple(streams) if "rng" in attack.reads else None,
        honest_gradients=_honest_rows(data, cells, honest, dimension, kind),
        true_gradient=gradients if true_gradient else None,
        byzantine_staleness=lags,
    )
    crafted = attack.craft_batch(batch)
    assert crafted.shape == (cells, f, dimension)
    assert crafted.dtype == np.float64
    for cell in range(cells):
        want = attack.craft(_context(batch, cell, replay[cell]))
        assert crafted[cell].tobytes() == want.tobytes(), cell
        assert (
            streams[cell].bit_generator.state == replay[cell].bit_generator.state
        )


def test_every_batched_craft_has_a_per_slice_pin():
    """A ``craft_batch`` registered without a pin above fails here, so
    no batched craft runs in the engine unchecked against its craft."""
    assert sorted(cls.__name__ for cls in PINNED) == batched_craft_names()


def test_dispatch_is_by_exact_type():
    class Loud(GaussianAttack):
        def craft(self, context):
            return super().craft(context)

    assert has_batched_craft(GaussianAttack())
    assert not has_batched_craft(Loud())


def test_an_overriding_craft_reads_every_field_again():
    """A subclass's craft may read more than its parent's declared
    ``reads``, so it gets every field unless it declares its own."""

    class Overriding(SignFlipAttack):
        def craft(self, context):
            return super().craft(context)

    class Declared(SignFlipAttack):
        reads = frozenset({"true_gradient"})

        def craft(self, context):
            return super().craft(context)

    class Inheriting(SignFlipAttack):
        pass

    assert Overriding.reads == CONTEXT_READS
    assert Declared.reads == {"true_gradient"}
    assert Inheriting.reads == SignFlipAttack.reads


def test_registration_checks_the_class():
    class NoBatch(Attack):
        reads = frozenset()

        def craft(self, context):
            return np.zeros((context.num_byzantine, context.dimension))

    with pytest.raises(ConfigurationError, match="own craft_batch"):
        register_batched_craft(NoBatch)

    class ReadsParams(NoBatch):
        reads = frozenset({"params"})

        def craft_batch(self, batch):
            raise AssertionError

    with pytest.raises(ConfigurationError, match="params"):
        register_batched_craft(ReadsParams)
    with pytest.raises(ConfigurationError, match="Attack class"):
        register_batched_craft(object)
    assert "ReadsParams" not in batched_craft_names()


# ----------------------------------------------------------------------
# Declared reads


class _Guarded(AttackContext):
    """A context whose fields outside ``allowed`` raise when read."""

    _allowed: frozenset = CONTEXT_READS

    def __getattribute__(self, name):
        if name in CONTEXT_READS and name not in object.__getattribute__(
            self, "_allowed"
        ):
            raise AssertionError(f"read undeclared context field {name!r}")
        return object.__getattribute__(self, name)


def _guarded(context: AttackContext, allowed: frozenset) -> AttackContext:
    fields = {name: getattr(context, name) for name in context.__dataclass_fields__}
    guarded = _Guarded(**fields)
    object.__setattr__(guarded, "_allowed", frozenset(allowed))
    return guarded


#: Factory kwargs for the registered attacks whose defaults do not build.
KWARGS = {
    "composite": {
        "parts": (
            ("lipschitz-mimicry", {}, 1),
            ("gaussian", {}, 1),
            ("staleness-gaming", {}, 1),
        )
    },
}


def _attacks():
    """Two fresh instances of every registered attack (one crafts from
    the guarded context, one from the full one), and the Lemma 3.1
    hijack, which needs a target."""
    for name in available_attacks():
        yield name, lambda name=name: make_attack(name, KWARGS.get(name, {}))
    yield "linear-hijack", lambda: LinearHijackAttack(np.arange(4.0))


@pytest.mark.parametrize("is_async", [False, True], ids=["sync", "async"])
@pytest.mark.parametrize(
    "name,build", list(_attacks()), ids=[name for name, _ in _attacks()]
)
def test_craft_reads_only_declared_fields(name, build, is_async):
    guarded_attack, full_attack = build(), build()
    assert guarded_attack.reads <= CONTEXT_READS
    data = np.random.default_rng(5)
    f, dimension = 3, 4
    honest_ids = np.arange(NUM_WORKERS - f)
    byzantine_ids = np.arange(NUM_WORKERS - f, NUM_WORKERS)
    streams = [np.random.default_rng(11), np.random.default_rng(11)]
    params = data.normal(size=dimension)
    for t in range(4):
        lags = data.integers(0, 3, size=NUM_WORKERS) if is_async else None
        context = AttackContext(
            round_index=t,
            params=params.copy(),
            honest_gradients=data.normal(size=(honest_ids.size, dimension)),
            byzantine_indices=byzantine_ids,
            honest_indices=honest_ids,
            num_workers=NUM_WORKERS,
            rng=streams[0],
            aggregator=make_aggregator("krum", f=f),
            true_gradient=params * 0.5,
            honest_staleness=None if lags is None else lags[honest_ids],
            byzantine_staleness=None if lags is None else lags[byzantine_ids],
            honest_params=(
                None
                if lags is None
                else params + data.normal(size=(honest_ids.size, dimension))
            ),
            selected_last_round=None if t == 0 else np.array([True, False, t % 2 == 0]),
            dimension=dimension,
        )
        got = guarded_attack.craft(_guarded(context, guarded_attack.reads))
        want = full_attack.craft(replace(context, rng=streams[1]))
        assert got.tobytes() == want.tobytes(), t
        params = params - 0.1 * want.mean(axis=0)
    assert streams[0].bit_generator.state == streams[1].bit_generator.state
