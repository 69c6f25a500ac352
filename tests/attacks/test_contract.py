"""Registry-wide attack-contract sweep.

Every name in ``available_attacks()`` must honour the craft contract:
an ``(f, d)`` float64 output, no mutation of the context's arrays,
determinism under a fixed RNG (with ``reset()`` restoring stateful
attacks to a fresh run), an honest ``stateful`` flag, and an empty block
at ``f = 0`` for attacks whose adversary model permits an empty
coalition.  The sweep is registry-driven, so a newly registered attack
is contract-tested by construction; the concrete attacks no registry
lists (they need a model or a target) join it through
:data:`UNREGISTERED`, and a guard fails on any concrete attack class
that is neither.
"""

from __future__ import annotations

import importlib
import inspect
import pickle
import pkgutil

import numpy as np
import pytest

import repro
from repro.attacks.base import Attack, AttackContext
from repro.attacks.hijack import LinearHijackAttack
from repro.attacks.poisoning import LabelFlipAttack
from repro.attacks.registry import available_attacks, make_attack
from repro.data.synthetic import make_blobs
from repro.models.logistic import LogisticRegressionModel
from repro.servers.attacks import ServerAttack
from repro.servers.registry import available_server_attacks, make_server_attack

DIMENSION = 5
NUM_HONEST = 6

#: Per-name kwargs for attacks whose factory needs more than defaults.
DEFAULT_KWARGS: dict[str, dict] = {
    "composite": {"parts": (("crash", {}, 1), ("sign-flip", {}, 2))},
}


def _label_flip() -> LabelFlipAttack:
    blobs = make_blobs(40, num_classes=2, num_features=DIMENSION - 1, seed=0)
    model = LogisticRegressionModel(DIMENSION - 1)
    shards = [(blobs.inputs[:20], blobs.targets[:20])]
    return LabelFlipAttack(model, shards, num_classes=2, batch_size=8)


#: Concrete attacks no registry lists, by sweep name.
UNREGISTERED = {
    "label-flip": _label_flip,
    "linear-hijack": lambda: LinearHijackAttack(np.full(DIMENSION, 2.0)),
}

SWEPT = available_attacks() + sorted(UNREGISTERED)

#: Minimum coalition size an attack's adversary model requires.
MIN_F: dict[str, int] = {
    "collusion": 2,  # needs a colluding majority of >= 2
    "composite": 3,  # the DEFAULT_KWARGS parts sum to exactly 3
    "linear-hijack": 1,  # one designated worker compensates
}

#: Attacks whose f is pinned by construction (cannot craft other sizes).
FIXED_F = {"composite"}


def build_attack(name: str):
    if name in UNREGISTERED:
        return UNREGISTERED[name]()
    return make_attack(name, DEFAULT_KWARGS.get(name, {}))


def make_context(
    *,
    num_byzantine: int,
    seed: int = 0,
    round_index: int = 0,
    with_async: bool = False,
    with_selection: bool = False,
    params_scale: float = 1.0,
) -> AttackContext:
    """A deterministic, fully-populated context (true gradient included,
    so gradient-steering attacks take their omniscient branch)."""
    rng = np.random.default_rng(seed + 7919 * round_index)
    n = NUM_HONEST + num_byzantine
    honest = 1.0 + 0.1 * rng.standard_normal((NUM_HONEST, DIMENSION))
    params = params_scale * (1.0 + rng.standard_normal(DIMENSION))
    byzantine = np.arange(NUM_HONEST, n, dtype=np.int64)
    context = AttackContext(
        round_index=round_index,
        params=params,
        honest_gradients=honest,
        byzantine_indices=byzantine,
        honest_indices=np.arange(NUM_HONEST, dtype=np.int64),
        num_workers=n,
        rng=np.random.default_rng(seed),
        true_gradient=params.copy(),
        honest_staleness=(
            np.arange(NUM_HONEST, dtype=np.int64) % 3 if with_async else None
        ),
        byzantine_staleness=(
            np.arange(num_byzantine, dtype=np.int64) % 3
            if with_async
            else None
        ),
        honest_params=(
            params + 0.01 * rng.standard_normal((NUM_HONEST, DIMENSION))
            if with_async
            else None
        ),
        selected_last_round=(
            (np.arange(num_byzantine) % 2 == 0)
            if with_selection and num_byzantine
            else None
        ),
    )
    context.validate()
    return context


def craft_rounds(attack, *, rounds: int = 3, seed: int = 0, **kwargs):
    """Craft over several evolving rounds (exercises stateful paths)."""
    return [
        attack.craft(
            make_context(
                num_byzantine=3, seed=seed, round_index=t, **kwargs
            )
        )
        for t in range(rounds)
    ]


@pytest.mark.parametrize("name", SWEPT)
class TestAttackContract:
    def test_output_shape_and_dtype(self, name):
        attack = build_attack(name)
        for out in craft_rounds(attack):
            assert out.shape == (3, DIMENSION)
            assert out.dtype == np.float64

    def test_async_context_output_shape(self, name):
        attack = build_attack(name)
        for out in craft_rounds(attack, with_async=True, with_selection=True):
            assert out.shape == (3, DIMENSION)
            assert out.dtype == np.float64

    def test_does_not_mutate_context(self, name):
        attack = build_attack(name)
        context = make_context(
            num_byzantine=3, with_async=True, with_selection=True
        )
        arrays = {
            field: np.asarray(getattr(context, field)).copy()
            for field in (
                "params",
                "honest_gradients",
                "byzantine_indices",
                "honest_indices",
                "true_gradient",
                "honest_staleness",
                "byzantine_staleness",
                "honest_params",
                "selected_last_round",
            )
        }
        attack.craft(context)
        for field, before in arrays.items():
            after = np.asarray(getattr(context, field))
            assert after.tobytes() == before.tobytes(), (
                f"{name} mutated context.{field}"
            )

    def test_deterministic_under_fixed_rng(self, name):
        """Two fresh instances on identical context streams agree
        bit for bit (attack RNG is the only sanctioned entropy)."""
        first = craft_rounds(build_attack(name), seed=11)
        second = craft_rounds(build_attack(name), seed=11)
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()

    def test_reset_restores_fresh_run(self, name):
        """One instance re-used sequentially (reset between runs, as the
        simulator does) matches a fresh instance."""
        attack = build_attack(name)
        craft_rounds(attack, seed=3)
        attack.reset()
        reused = craft_rounds(attack, seed=3)
        fresh = craft_rounds(build_attack(name), seed=3)
        for a, b in zip(reused, fresh):
            assert a.tobytes() == b.tobytes()

    def test_stateful_flag_is_honest(self, name):
        """Crafting leaves a stateless attack's instance state as built,
        and ``reset()`` brings a stateful one's back to it, on contexts
        that carry every field an adaptive attack may learn from.
        Hidden state behind ``stateful = False`` would break the batched
        engine's sharing of one instance across cells, and a stateful
        attack that ``reset()`` does not clear leaks into the next run."""
        attack = build_attack(name)
        built = pickle.dumps(vars(attack))
        first = craft_rounds(attack, seed=5, with_async=True, with_selection=True)
        if attack.stateful:
            attack.reset()
        assert pickle.dumps(vars(attack)) == built
        second = craft_rounds(attack, seed=5, with_async=True, with_selection=True)
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()

    def test_f0_returns_empty_block(self, name):
        if name in MIN_F and MIN_F[name] > 0:
            pytest.skip(f"{name} requires f >= {MIN_F[name]}")
        attack = build_attack(name)
        out = attack.craft(make_context(num_byzantine=0))
        assert out.shape == (0, DIMENSION)
        assert out.dtype == np.float64

    def test_min_f_boundary(self, name):
        """The smallest admissible coalition still crafts a full block."""
        if name in FIXED_F:
            pytest.skip(f"{name} pins f by construction")
        f = max(MIN_F.get(name, 1), 1)
        attack = build_attack(name)
        out = attack.craft(make_context(num_byzantine=f))
        assert out.shape == (f, DIMENSION)


def concrete_attack_classes() -> set[type]:
    """Every concrete ``Attack``/``ServerAttack`` class defined in a
    ``repro`` module."""
    found = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if (
                inspect.isclass(value)
                and issubclass(value, (Attack, ServerAttack))
                and value.__module__ == info.name
                and not inspect.isabstract(value)
            ):
                found.add(value)
    return found


def test_every_concrete_attack_is_swept():
    """A concrete attack class outside both contract sweeps (this one
    and ``tests/servers/test_server_attack_contract.py``, which sweeps
    the server-attack registry) would escape the stateful-flag and
    reset checks."""
    swept = {type(build_attack(name)) for name in SWEPT}
    swept |= {type(make_server_attack(name)) for name in available_server_attacks()}
    missing = sorted(cls.__qualname__ for cls in concrete_attack_classes() - swept)
    assert missing == []
