"""Registry-wide server-attack contract sweep.

Every name in ``available_server_attacks()`` must honour the corruption
contract — the server-side mirror of ``tests/attacks/test_contract.py``:
a ``(byzantine_servers, d)`` float64 output, no mutation of the
context's arrays, determinism under a fixed RNG (with ``reset()``
restoring stateful attacks to a fresh run), and an honest ``stateful``
flag: corrupting leaves a stateless attack's instance state as built,
and ``reset()`` brings a stateful one's back to it.  The sweep is
registry-driven, so a newly registered server attack is contract-tested
by construction.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.servers.attacks import (
    RandomNoiseBroadcastAttack,
    ServerAttackContext,
    SignFlipBroadcastAttack,
    StaleReplayBroadcastAttack,
)
from repro.servers.registry import (
    available_server_attacks,
    batched_corrupt_names,
    has_batched_corrupt,
    make_server_attack,
    register_batched_corrupt,
)

DIMENSION = 5
NUM_SERVERS = 4
NUM_BYZANTINE = 2


def build_attack(name: str):
    return make_server_attack(name)


def make_context(
    *,
    num_byzantine: int = NUM_BYZANTINE,
    seed: int = 0,
    round_index: int = 0,
    rng: np.random.Generator | None = None,
) -> ServerAttackContext:
    params_rng = np.random.default_rng(seed + 7919 * round_index)
    context = ServerAttackContext(
        round_index=round_index,
        params=1.0 + params_rng.standard_normal(DIMENSION),
        num_servers=NUM_SERVERS,
        byzantine_indices=np.arange(
            NUM_SERVERS - num_byzantine, NUM_SERVERS, dtype=np.int64
        ),
        rng=rng if rng is not None else np.random.default_rng(seed),
    )
    context.validate()
    return context


def corrupt_rounds(attack, *, rounds: int = 4, seed: int = 0):
    """Corrupt over several evolving rounds (exercises stateful paths),
    sharing one RNG stream across the rounds as the server group does."""
    rng = np.random.default_rng(seed)
    return [
        attack.corrupt(make_context(seed=seed, round_index=t, rng=rng))
        for t in range(rounds)
    ]


@pytest.mark.parametrize("name", available_server_attacks())
class TestServerAttackContract:
    def test_output_shape_and_dtype(self, name):
        attack = build_attack(name)
        for out in corrupt_rounds(attack):
            assert out.shape == (NUM_BYZANTINE, DIMENSION)
            assert out.dtype == np.float64

    def test_does_not_mutate_context(self, name):
        attack = build_attack(name)
        context = make_context()
        params_before = context.params.copy()
        indices_before = context.byzantine_indices.copy()
        attack.corrupt(context)
        assert context.params.tobytes() == params_before.tobytes()
        assert context.byzantine_indices.tobytes() == indices_before.tobytes()

    def test_deterministic_under_fixed_rng(self, name):
        first = corrupt_rounds(build_attack(name), seed=11)
        second = corrupt_rounds(build_attack(name), seed=11)
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()

    def test_reset_restores_fresh_run(self, name):
        attack = build_attack(name)
        corrupt_rounds(attack, seed=3)
        attack.reset()
        reused = corrupt_rounds(attack, seed=3)
        fresh = corrupt_rounds(build_attack(name), seed=3)
        for a, b in zip(reused, fresh):
            assert a.tobytes() == b.tobytes()

    def test_stateful_flag_is_honest(self, name):
        """Corrupting leaves a stateless attack's instance state as
        built, and ``reset()`` brings a stateful one's back to it.
        Hidden state behind ``stateful = False`` would break the batched
        engine's sharing guard."""
        attack = build_attack(name)
        built = pickle.dumps(vars(attack))
        first = corrupt_rounds(attack, seed=5)
        if attack.stateful:
            attack.reset()
        assert pickle.dumps(vars(attack)) == built
        second = corrupt_rounds(attack, seed=5)
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()

    def test_single_byzantine_replica(self, name):
        attack = build_attack(name)
        context = make_context(num_byzantine=1)
        out = attack.corrupt(context)
        assert out.shape == (1, DIMENSION)

    def test_name_is_a_nonempty_string(self, name):
        attack = build_attack(name)
        assert isinstance(attack.name, str) and attack.name


#: The server attacks whose ``corrupt_batch`` is pinned below.
BATCH_PINNED = {
    SignFlipBroadcastAttack: [SignFlipBroadcastAttack(), SignFlipBroadcastAttack(2.5)]
}


@pytest.mark.parametrize("num_byzantine", [1, NUM_BYZANTINE, NUM_SERVERS])
@pytest.mark.parametrize(
    "attack",
    [attack for configs in BATCH_PINNED.values() for attack in configs],
    ids=lambda attack: attack.name,
)
def test_corrupt_batch_slices_equal_corrupt(attack, num_byzantine):
    """Slice b of one ``corrupt_batch`` call is ``corrupt`` of row b bit
    for bit, non-finite rows included."""
    params = np.random.default_rng(3).normal(size=(6, DIMENSION))
    params[1, 0], params[2, 1], params[3, 2] = np.nan, np.inf, -np.inf
    batch = attack.corrupt_batch(params, num_byzantine)
    assert batch.shape == (6, num_byzantine, DIMENSION)
    for cell, row in enumerate(params):
        context = ServerAttackContext(
            round_index=0,
            params=row.copy(),
            num_servers=NUM_SERVERS,
            byzantine_indices=np.arange(
                NUM_SERVERS - num_byzantine, NUM_SERVERS, dtype=np.int64
            ),
            rng=np.random.default_rng(0),
        )
        assert batch[cell].tobytes() == attack.corrupt(context).tobytes()


def test_every_batched_corrupt_has_a_per_slice_pin():
    assert sorted(cls.__name__ for cls in BATCH_PINNED) == batched_corrupt_names()
    assert not has_batched_corrupt(StaleReplayBroadcastAttack())
    assert not has_batched_corrupt(RandomNoiseBroadcastAttack())
    with pytest.raises(ConfigurationError, match="own corrupt_batch"):
        register_batched_corrupt(RandomNoiseBroadcastAttack)
    with pytest.raises(ConfigurationError, match="ServerAttack class"):
        register_batched_corrupt(object)
    assert batched_corrupt_names() == ["SignFlipBroadcastAttack"]
