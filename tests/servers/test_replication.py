"""The replicated server group: views, Byzantine broadcasts, recovery.

Includes the hand-rolled property tests the issue asks for: the
worker-side coordinate median is permutation-invariant in replica order,
and exact (bit-for-bit the canonical broadcast) whenever
``byzantine_servers = 0`` — for odd *and* even replica counts.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.attacks.base import Attack
from repro.attacks.simple import SignFlipAttack
from repro.baselines.average import Average
from repro.distributed.delays import ConstantDelay, SeededRandomDelay
from repro.distributed.schedules import ConstantSchedule
from repro.exceptions import ConfigurationError, DimensionMismatchError
from repro.experiments.builders import build_quadratic_simulation
from repro.models.quadratic import QuadraticBowl
from repro.servers.attacks import SignFlipBroadcastAttack
from repro.servers.replication import ReplicatedServerGroup, replica_view
from tests.distributed.server_reference import reference_run

DIMENSION = 6


def build_group(**kwargs):
    defaults = dict(
        num_servers=1,
        byzantine_servers=0,
        num_shards=1,
        server_attack=None,
        rng=None,
    )
    defaults.update(kwargs)
    return ReplicatedServerGroup(
        np.arange(float(DIMENSION)),
        Average(),
        ConstantSchedule(0.1),
        **defaults,
    )


class TestReplicaView:
    def test_permutation_invariant_in_replica_order(self):
        rng = np.random.default_rng(0)
        broadcasts = rng.standard_normal((4, DIMENSION))
        reference = replica_view(broadcasts)
        for order in itertools.permutations(range(4)):
            view = replica_view(broadcasts[list(order)])
            assert view.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("num_servers", [1, 2, 3, 4, 7, 8])
    def test_exact_over_identical_rows(self, num_servers):
        """Median of k identical honest broadcasts is the broadcast,
        bitwise — odd counts pick the middle row, even counts average
        two equal values; neither perturbs a single bit."""
        rng = np.random.default_rng(1)
        row = rng.standard_normal(DIMENSION)
        view = replica_view(np.tile(row, (num_servers, 1)))
        assert view.tobytes() == row.tobytes()

    def test_median_neutralizes_a_minority_sign_flip(self):
        """median{x, x, −x} = x exactly: two honest replicas out-vote
        the flipped broadcast coordinate by coordinate."""
        rng = np.random.default_rng(2)
        row = rng.standard_normal(DIMENSION)
        broadcasts = np.stack([row, row, -row])
        assert replica_view(broadcasts).tobytes() == row.tobytes()

    @pytest.mark.parametrize("num_servers", [1, 2, 3, 4])
    def test_stacked_cells_match_per_cell_views_bitwise(self, num_servers):
        """The executors stack the broadcasts of every tier cell with
        the same replica count into one ``(k, S, d)`` call; each cell's
        view must equal its own ``(S, d)`` call bit for bit, including
        NaN, ±inf and −0.0 entries."""
        rng = np.random.default_rng(10 + num_servers)
        stacked = rng.standard_normal((6, num_servers, DIMENSION))
        stacked[1, 0] = np.nan
        stacked[2, -1] = np.inf
        stacked[3, 0, ::2] = -np.inf
        stacked[4] = -0.0
        stacked[5, 0] = 0.0
        stacked[5, -1, 1::2] = -0.0
        views = replica_view(stacked)
        assert views.shape == (6, DIMENSION)
        for cell in range(len(stacked)):
            assert views[cell].tobytes() == replica_view(stacked[cell]).tobytes()

    def test_rejects_non_matrix_input(self):
        with pytest.raises(ConfigurationError):
            replica_view(np.zeros(DIMENSION))
        with pytest.raises(ConfigurationError):
            replica_view(np.zeros((0, DIMENSION)))
        with pytest.raises(ConfigurationError):
            replica_view(np.zeros((3, 0, DIMENSION)))


class TestConstruction:
    def test_byzantine_requires_attack(self):
        with pytest.raises(ConfigurationError, match="requires a"):
            build_group(
                num_servers=3,
                byzantine_servers=1,
                rng=np.random.default_rng(0),
            )

    def test_attack_requires_byzantine(self):
        with pytest.raises(ConfigurationError, match="byzantine_servers=0"):
            build_group(server_attack=SignFlipBroadcastAttack())

    def test_byzantine_requires_rng(self):
        with pytest.raises(ConfigurationError, match="rng"):
            build_group(
                num_servers=3,
                byzantine_servers=1,
                server_attack=SignFlipBroadcastAttack(),
            )

    def test_byzantine_bounded_by_replica_count(self):
        with pytest.raises(ConfigurationError):
            build_group(
                num_servers=2,
                byzantine_servers=3,
                server_attack=SignFlipBroadcastAttack(),
                rng=np.random.default_rng(0),
            )

    def test_fully_byzantine_group_is_legal(self):
        group = build_group(
            num_servers=1,
            byzantine_servers=1,
            server_attack=SignFlipBroadcastAttack(),
            rng=np.random.default_rng(0),
        )
        assert group.byzantine_server_ids.tolist() == [0]

    def test_attack_resolves_from_registry_name(self):
        group = build_group(
            num_servers=3,
            byzantine_servers=1,
            server_attack="sign-flip-broadcast",
            rng=np.random.default_rng(0),
        )
        assert isinstance(group.server_attack, SignFlipBroadcastAttack)

    def test_adversary_controls_the_last_replica_ids(self):
        group = build_group(
            num_servers=5,
            byzantine_servers=2,
            server_attack=SignFlipBroadcastAttack(),
            rng=np.random.default_rng(0),
        )
        assert group.byzantine_server_ids.tolist() == [3, 4]

    def test_more_shards_than_coordinates_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="num_shards"):
            build_group(num_shards=DIMENSION + 1)

    @pytest.mark.parametrize("bad", [2.7, True])
    @pytest.mark.parametrize(
        "knob, tier",
        [
            ("num_servers", {}),
            (
                "byzantine_servers",
                {"num_servers": 3, "server_attack": "sign-flip-broadcast"},
            ),
            ("num_shards", {}),
        ],
        ids=["num_servers", "byzantine_servers", "num_shards"],
    )
    def test_tier_knobs_reject_floats_and_bools(self, knob, tier, bad):
        # Through the quadratic builder: a truncated knob would run a
        # different tier than the one asked for.
        with pytest.raises(ConfigurationError, match=f"{knob} must be an integer"):
            tier_simulation(**tier, **{knob: bad})

    def test_initial_params_must_be_a_vector(self):
        with pytest.raises(DimensionMismatchError):
            ReplicatedServerGroup(
                np.zeros((2, 3)), Average(), ConstantSchedule(0.1)
            )

    def test_group_holds_the_rule_schedule_and_guard(self):
        group = build_group(num_shards=2, halt_on_nonfinite=True)
        assert group.dimension == DIMENSION
        assert group.aggregator.name == "sharded(average,shards=2)"
        assert group.schedule(0) == 0.1
        assert group.halt_on_nonfinite is True
        assert not group.tier_active


class TestWorkerView:
    def build_attacked(self, num_servers=3, byzantine_servers=1):
        return build_group(
            num_servers=num_servers,
            byzantine_servers=byzantine_servers,
            server_attack=SignFlipBroadcastAttack(),
            rng=np.random.default_rng(0),
        )

    def test_single_corrupted_server_serves_the_attack(self):
        group = self.build_attacked(num_servers=1, byzantine_servers=1)
        params = np.arange(float(DIMENSION))
        # Equality, not tobytes: np.median normalizes -0.0 to +0.0 at
        # the zero coordinate of the flipped broadcast.
        np.testing.assert_array_equal(group.corrupted_view(params, 0), -params)

    def test_three_replicas_recover_the_canonical_broadcast(self):
        group = self.build_attacked()
        params = np.arange(float(DIMENSION))
        assert group.corrupted_view(params, 0).tobytes() == params.tobytes()


def tier_simulation(*, attack=None, num_byzantine=0, **tier):
    """A quadratic cell whose honest workers return their read exactly
    (sigma 0), so every proposal shows which parameters it was computed
    at."""
    return build_quadratic_simulation(
        QuadraticBowl(DIMENSION),
        aggregator=Average(),
        num_workers=5,
        num_byzantine=num_byzantine,
        attack=attack,
        sigma=0.0,
        learning_rate=0.1,
        lr_timescale=None,
        **tier,
    )


class _Recorder(Attack):
    """Sends zeros and keeps what each round's context showed."""

    name = "recorder"

    def __init__(self):
        self.contexts = []

    def craft(self, context):
        self.contexts.append(context)
        return np.zeros((context.num_byzantine, context.dimension))


class TestTierRounds:
    """The server tier inside the shared round stages, each case also
    checked against the frozen reference round."""

    @pytest.mark.parametrize("num_servers", [1, 4])
    def test_honest_replication_never_forks(self, num_servers):
        """byzantine_servers=0 with any replica count: the view is the
        canonical state bitwise, so the trajectory is the single
        server's."""
        plain = tier_simulation()
        replicated = tier_simulation(num_servers=num_servers)
        assert replicated.server.tier_active == (num_servers > 1)
        plain_history = plain.run(6, eval_every=2)
        replicated_history = replicated.run(6, eval_every=2)
        assert replicated.params.tobytes() == plain.params.tobytes()
        assert list(replicated_history) == list(plain_history)

    def test_update_applies_to_canonical_state_not_the_view(self):
        """Workers read the flipped broadcast −x₀ and propose ∇Q(−x₀);
        the step moves the canonical x₀, not the view."""
        sim = tier_simulation(
            num_servers=1,
            byzantine_servers=1,
            server_attack=SignFlipBroadcastAttack(),
        )
        x0 = sim.params
        proposal = sim.true_gradient_fn(-x0)
        assert not np.allclose(proposal, sim.true_gradient_fn(x0))
        sim.run_round()
        np.testing.assert_allclose(sim.params, x0 - 0.1 * proposal)

    def test_view_is_materialized_once_per_round(self, monkeypatch):
        sim = tier_simulation(
            num_servers=3,
            byzantine_servers=1,
            server_attack="random-noise-broadcast",
        )
        # replica_broadcasts is the call that consumes the server-attack
        # stream; the executor stacks its result into the view.
        calls = []
        original = sim.server.replica_broadcasts

        def counted(params, round_index):
            calls.append(round_index)
            return original(params, round_index)

        monkeypatch.setattr(sim.server, "replica_broadcasts", counted)
        sim.run(5, eval_every=2)
        assert calls == [0, 1, 2, 3, 4]

    def test_stale_workers_read_the_view_window(self):
        """Under a constant lag of two rounds, the honest workers of
        round t computed at the view served at round t − 2."""
        recorder = _Recorder()
        sim = tier_simulation(
            attack=recorder,
            num_byzantine=1,
            num_servers=1,
            byzantine_servers=1,
            server_attack=SignFlipBroadcastAttack(),
            max_staleness=2,
            delay_schedule=ConstantDelay(tau=2),
        )
        sim.run(5, eval_every=5)
        views = [context.params for context in recorder.contexts]
        for t in range(2, 5):
            for row in recorder.contexts[t].honest_params:
                assert row.tobytes() == views[t - 2].tobytes()

    @pytest.mark.parametrize(
        "server_attack", ["sign-flip-broadcast", "random-noise-broadcast"]
    )
    def test_tier_rounds_match_the_reference(self, server_attack):
        def build():
            return tier_simulation(
                attack=SignFlipAttack(),
                num_byzantine=1,
                num_servers=3,
                byzantine_servers=1,
                server_attack=server_attack,
                max_staleness=2,
                delay_schedule=SeededRandomDelay(max_delay=3),
            )

        sim = build()
        history = sim.run(8, eval_every=3)
        reference, params = reference_run(build(), 8, eval_every=3)
        assert sim.params.tobytes() == params.tobytes()
        assert [repr(r) for r in history] == [repr(r) for r in reference]
