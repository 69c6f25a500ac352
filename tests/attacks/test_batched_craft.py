"""Batched crafts and declared context reads.

Each attack registered with ``register_batched_craft`` crafts all the
cells of one configuration in one ``craft_batch`` call, and slice ``b``
must equal ``craft`` on cell ``b``'s own context bit for bit — over
ties, NaN and ±inf honest rows, ``f = 0``, with and without the true
gradient and for every staleness pattern — with each cell's generator
left where its own craft leaves it.  The stateful Lipschitz-mimicry
craft is pinned over whole runs against the frozen per-cell reference
of ``tests/attacks/mimicry_reference.py``, its rate windows included.
``PINNED`` lists the attack types this file pins, and a registered
craft without a pin fails here.

Every attack declares the context fields its ``craft`` reads
(``Attack.reads``), and the ones it reads only when the true gradient
is hidden (``Attack.fallback_reads``); the executors build only those.
The sentinel test crafts with every registered attack from a context
whose undeclared fields raise when read, and checks the result equals
the craft from the full context.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np
import pytest

from repro.attacks import (
    CrashAttack,
    GaussianAttack,
    InnerProductAttack,
    LinearHijackAttack,
    LipschitzMimicryAttack,
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
from tests.attacks.mimicry_reference import ReferenceLipschitzMimicry

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
    LipschitzMimicryAttack: [
        LipschitzMimicryAttack(),
        LipschitzMimicryAttack(scale=3.0, quantile=0.5, window=7, margin=0.5),
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
    [
        attack
        for configs in PINNED.values()
        for attack in configs
        if not attack.stateful
    ],
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


#: Round indices and Byzantine staleness values per pattern of the
#: mimicry pin.  ``beyond-memory`` jumps 64 rounds ahead, so a slot
#: judged 64 rounds back finds its parameters and one judged 65 or 66
#: rounds back falls back to the current ones.
MIMICRY_STALENESS = {
    "sync": (range(7), None),
    "stale": (range(7), (0, 1, 2, 3, 4)),
    "beyond-memory": ((0, 1, 2, 66, 67, 68, 133), (0, 1, 64, 65, 66)),
}


def _mimicry_rounds(seed, cells, kind, staleness, true_gradient):
    """Per round: the ``(B, …)`` inputs of a mimicry batch.

    Each round draws every cell's honest ids anew (so seen sets are
    partial and the Byzantine ids move), parameters from a two-vector
    pool (``static`` repeats them, for zero displacements, and holds
    the gradients, so the step reaches zero), and NaN and ±inf honest
    entries and parameters for ``nonfinite``."""
    data = np.random.default_rng(seed)
    n, f, d = 7, 2, 5
    indices, lags = MIMICRY_STALENESS[staleness]
    pool = data.normal(size=(2, d))
    honest_rows = data.normal(size=(cells, n - f, d))
    gradient = data.normal(size=(cells, d))
    out = []
    for t, round_index in enumerate(indices):
        ids = np.stack([data.permutation(n) for _ in range(cells)])
        if kind == "static":
            params = pool[np.full(cells, (t // 2) % 2)]
            gradients = honest_rows.copy()
            true = gradient
        else:
            params = pool[data.integers(0, 2, size=cells)] + t * data.normal(
                size=(cells, d)
            )
            gradients = honest_rows + data.normal(size=honest_rows.shape)
            true = data.normal(size=(cells, d))
        if kind == "nonfinite" and t % 3 == 1:
            gradients[0, 0, 0] = np.nan
            gradients[-1, -1, 1] = np.inf
            gradients[cells // 2, 1, -1] = -np.inf
        if kind == "nonfinite" and t % 3 == 2:
            params[1, 0] = np.inf
            params[2, 1] = np.nan
        honest_params = None
        if lags is not None:
            honest_params = params[:, None] + data.normal(size=(cells, n - f, d))
        out.append(
            dict(
                round_index=round_index,
                num_workers=n,
                num_byzantine=f,
                dimension=d,
                size=cells,
                honest_gradients=gradients,
                true_gradient=true if true_gradient else None,
                byzantine_staleness=(
                    None
                    if lags is None
                    else data.choice(lags, size=(cells, f))
                ),
                params=params,
                honest_params=honest_params,
                honest_indices=np.sort(ids[:, f:], axis=1),
                byzantine_indices=np.sort(ids[:, :f], axis=1),
            )
        )
    return out


def _cell_context(inputs: dict, cell: int) -> AttackContext:
    def row(name):
        value = inputs[name]
        return None if value is None else value[cell].copy()

    return AttackContext(
        round_index=inputs["round_index"],
        params=row("params"),
        honest_gradients=row("honest_gradients"),
        byzantine_indices=row("byzantine_indices"),
        honest_indices=row("honest_indices"),
        num_workers=inputs["num_workers"],
        rng=None,
        true_gradient=row("true_gradient"),
        byzantine_staleness=row("byzantine_staleness"),
        honest_params=row("honest_params"),
        dimension=inputs["dimension"],
    )


def _assert_cells_equal_reference(attacks, references, inputs, crafted):
    for cell, (attack, reference) in enumerate(zip(attacks, references)):
        want = reference.craft(_cell_context(inputs, cell))
        assert crafted[cell].tobytes() == want.tobytes(), cell
        assert (
            np.asarray(attack._rates).tobytes()
            == np.asarray(reference._rates).tobytes()
        ), cell


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", ["gaussian", "static", "nonfinite"])
@pytest.mark.parametrize("true_gradient", [True, False], ids=["oracle", "hidden"])
@pytest.mark.parametrize("staleness", list(MIMICRY_STALENESS))
@pytest.mark.parametrize(
    "config", PINNED[LipschitzMimicryAttack], ids=lambda attack: attack.name
)
def test_mimicry_batch_slices_equal_frozen_reference(
    config, staleness, true_gradient, kind, seed
):
    """Every round's slice ``b`` and cell ``b``'s rate window equal the
    frozen per-cell craft, over a run, after ``reset()`` and when a
    cell leaves the batch for a round and comes back."""
    cells = 4
    rounds = _mimicry_rounds(seed, cells, kind, staleness, true_gradient)
    attacks = tuple(copy.deepcopy(config) for _ in range(cells))
    for _ in range(2):
        references = [
            ReferenceLipschitzMimicry(
                scale=config.scale,
                quantile=config.quantile,
                window=config.window,
                margin=config.margin,
            )
            for _ in range(cells)
        ]
        for t, inputs in enumerate(rounds):
            if t == 4:
                # One cell crafts on its own (its B = 1 case), then
                # rejoins the others.
                alone = attacks[1].craft(_cell_context(inputs, 1))
                want = references[1].craft(_cell_context(inputs, 1))
                assert alone.tobytes() == want.tobytes()
                continue
            crafted = attacks[0].craft_batch(AttackBatch(**inputs, attacks=attacks))
            assert crafted.shape == (cells, 2, 5) and crafted.dtype == np.float64
            _assert_cells_equal_reference(attacks, references, inputs, crafted)
        for attack in attacks:
            attack.reset()


def test_mimicry_zero_step_under_a_nan_budget():
    """Zero honest rates and an infinite judged displacement make the
    budget ``margin · 0 · inf`` NaN; a zero step still goes to the
    target instead of dividing by its zero norm."""
    cells, n, f, d = 2, 5, 2, 3
    attacks = tuple(LipschitzMimicryAttack() for _ in range(cells))
    references = [ReferenceLipschitzMimicry() for _ in range(cells)]
    for t, params in enumerate([np.zeros((cells, d)), np.full((cells, d), np.inf)]):
        inputs = dict(
            round_index=t,
            num_workers=n,
            num_byzantine=f,
            dimension=d,
            size=cells,
            honest_gradients=np.zeros((cells, n - f, d)),
            true_gradient=None,
            byzantine_staleness=None,
            params=params,
            honest_params=None,
            honest_indices=np.tile(np.arange(n - f), (cells, 1)),
            byzantine_indices=np.tile(np.arange(n - f, n), (cells, 1)),
        )
        crafted = attacks[0].craft_batch(AttackBatch(**inputs, attacks=attacks))
        _assert_cells_equal_reference(attacks, references, inputs, crafted)
    assert list(attacks[0]._rates) == [0.0] * (n - f)
    assert crafted.tobytes() == np.full((cells, f, d), -0.0).tobytes()


def test_mimicry_batch_rejects_a_shared_instance():
    inputs = _mimicry_rounds(0, 2, "gaussian", "sync", True)[0]
    attack = LipschitzMimicryAttack()
    with pytest.raises(ConfigurationError, match="one instance per cell"):
        attack.craft_batch(AttackBatch(**inputs, attacks=(attack, attack)))
    with pytest.raises(ConfigurationError, match="instance"):
        attack.craft_batch(AttackBatch(**inputs))


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

    class ReadsAggregator(NoBatch):
        reads = frozenset({"aggregator"})

        def craft_batch(self, batch):
            raise AssertionError

    with pytest.raises(ConfigurationError, match="aggregator"):
        register_batched_craft(ReadsAggregator)
    with pytest.raises(ConfigurationError, match="Attack class"):
        register_batched_craft(object)
    assert "ReadsAggregator" not in batched_craft_names()


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


@pytest.mark.parametrize("true_gradient", [True, False], ids=["oracle", "hidden"])
@pytest.mark.parametrize("is_async", [False, True], ids=["sync", "async"])
@pytest.mark.parametrize(
    "name,build", list(_attacks()), ids=[name for name, _ in _attacks()]
)
def test_craft_reads_only_declared_fields(name, build, is_async, true_gradient):
    """Given the true gradient, the fallback-only fields raise too."""
    guarded_attack, full_attack = build(), build()
    assert guarded_attack.reads <= CONTEXT_READS
    assert guarded_attack.fallback_reads <= guarded_attack.reads
    allowed = guarded_attack.context_reads(true_gradient)
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
            true_gradient=params * 0.5 if true_gradient else None,
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
        got = guarded_attack.craft(_guarded(context, allowed))
        want = full_attack.craft(replace(context, rng=streams[1]))
        assert got.tobytes() == want.tobytes(), t
        params = params - 0.1 * want.mean(axis=0)
    assert streams[0].bit_generator.state == streams[1].bit_generator.state


def test_a_fallback_read_with_the_true_gradient_fails_the_guard():
    """An attack that declares a field fallback-only but reads it with
    the true gradient present fails the sentinel above."""

    class Misdeclared(SignFlipAttack):
        fallback_reads = frozenset({"honest_gradients"})

        def craft(self, context):
            context.honest_mean
            return super().craft(context)

    attack = Misdeclared()
    assert attack.reads == CONTEXT_READS and attack.context_reads(True) == (
        CONTEXT_READS - {"honest_gradients"}
    )
    context = AttackContext(
        round_index=0,
        params=np.zeros(4),
        honest_gradients=np.ones((3, 4)),
        byzantine_indices=np.array([3]),
        honest_indices=np.arange(3),
        num_workers=4,
        rng=None,
        true_gradient=np.ones(4),
    )
    with pytest.raises(AssertionError, match="honest_gradients"):
        attack.craft(_guarded(context, attack.context_reads(True)))


def test_an_overriding_craft_forgets_the_fallback_reads():
    class Overriding(SignFlipAttack):
        def craft(self, context):
            return super().craft(context)

    assert SignFlipAttack.fallback_reads == {"honest_gradients"}
    assert Overriding.fallback_reads == frozenset()
    assert OmniscientAttack().fallback_reads == {"honest_gradients"}
    assert OmniscientAttack(compensate_average=True).fallback_reads == frozenset()
