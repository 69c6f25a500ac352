"""Tests for the synchronous training simulation."""

import copy

import numpy as np
import pytest

from repro.attacks.random_noise import GaussianAttack
from repro.attacks.simple import SignFlipAttack
from repro.baselines.average import Average
from repro.core.krum import Krum
from repro.distributed.schedules import ConstantSchedule
from repro.distributed.simulator import TrainingSimulation
from repro.exceptions import ByzantineToleranceError, ConfigurationError
from repro.models.quadratic import QuadraticBowl


def _simulation(
    *,
    aggregator=None,
    num_workers=11,
    num_byzantine=0,
    attack=None,
    sigma=0.2,
    seed=0,
    **kwargs,
):
    bowl = QuadraticBowl(6)
    num_honest = num_workers - num_byzantine
    return (
        bowl,
        TrainingSimulation(
            aggregator=aggregator or Krum(f=num_byzantine, strict=False),
            schedule=ConstantSchedule(0.1),
            honest_estimators=[bowl.as_estimator(sigma) for _ in range(num_honest)],
            initial_params=np.full(6, 10.0),
            num_byzantine=num_byzantine,
            attack=attack,
            true_gradient_fn=bowl.exact_gradient,
            seed=seed,
            **kwargs,
        ),
    )


class TestConstruction:
    def test_worker_counts(self):
        _bowl, sim = _simulation(num_workers=11, num_byzantine=3, attack=GaussianAttack())
        assert sim.num_workers == 11
        assert len(sim.honest_workers) == 8
        assert len(sim.byzantine_ids) == 3

    def test_byzantine_requires_attack(self):
        with pytest.raises(ConfigurationError, match="requires an attack"):
            _simulation(num_byzantine=2)

    def test_attack_requires_byzantine(self):
        with pytest.raises(ConfigurationError, match="num_byzantine=0"):
            _simulation(num_byzantine=0, attack=GaussianAttack())

    def test_aggregator_tolerance_checked_at_build(self):
        bowl = QuadraticBowl(4)
        with pytest.raises(ByzantineToleranceError):
            TrainingSimulation(
                aggregator=Krum(f=3),  # needs n >= 9
                schedule=ConstantSchedule(0.1),
                honest_estimators=[bowl.as_estimator(0.1) for _ in range(4)],
                initial_params=np.zeros(4),
                num_byzantine=3,
                attack=GaussianAttack(),
            )

    def test_byzantine_slot_placement(self):
        _bowl, sim = _simulation(
            num_workers=9,
            num_byzantine=2,
            attack=GaussianAttack(),
            byzantine_slots="first",
        )
        assert sim.byzantine_ids == [0, 1]
        honest_ids = [w.worker_id for w in sim.honest_workers]
        assert honest_ids == list(range(2, 9))

    def test_explicit_slots(self):
        _bowl, sim = _simulation(
            num_workers=9,
            num_byzantine=2,
            attack=GaussianAttack(),
            byzantine_slots=[3, 7],
        )
        assert sim.byzantine_ids == [3, 7]

    def test_rejects_bad_slots(self):
        with pytest.raises(ConfigurationError):
            _simulation(
                num_workers=9,
                num_byzantine=2,
                attack=GaussianAttack(),
                byzantine_slots=[3, 99],
            )
        with pytest.raises(ConfigurationError):
            _simulation(
                num_workers=9,
                num_byzantine=2,
                attack=GaussianAttack(),
                byzantine_slots="middle",
            )

    def test_needs_an_honest_worker(self):
        """No round can aggregate an empty stack: a cluster without a
        correct worker is rejected at construction."""
        with pytest.raises(ConfigurationError, match="honest estimator"):
            TrainingSimulation(
                aggregator=Average(),
                schedule=ConstantSchedule(0.1),
                honest_estimators=[],
                initial_params=np.zeros(3),
            )

    def test_dimension_mismatch_detected(self):
        bowl6, bowl5 = QuadraticBowl(6), QuadraticBowl(5)
        with pytest.raises(ConfigurationError, match="dimension"):
            TrainingSimulation(
                aggregator=Average(),
                schedule=ConstantSchedule(0.1),
                honest_estimators=[bowl5.as_estimator(0.1)],
                initial_params=np.zeros(6),
            )


class TestRunning:
    def test_reproducible(self):
        _b1, sim1 = _simulation(num_byzantine=2, attack=GaussianAttack(), seed=42)
        _b2, sim2 = _simulation(num_byzantine=2, attack=GaussianAttack(), seed=42)
        sim1.run(20)
        sim2.run(20)
        np.testing.assert_array_equal(sim1.params, sim2.params)

    def test_different_seeds_differ(self):
        _b1, sim1 = _simulation(seed=1)
        _b2, sim2 = _simulation(seed=2)
        sim1.run(5)
        sim2.run(5)
        assert not np.array_equal(sim1.params, sim2.params)

    def test_history_length_and_rounds(self):
        _bowl, sim = _simulation()
        history = sim.run(17, eval_every=5)
        assert len(history) == 17
        assert history[-1].round_index == 16

    def test_final_round_always_evaluated(self):
        bowl, sim = _simulation()
        sim.evaluate = lambda params: {"loss": bowl.value(params)}
        history = sim.run(13, eval_every=5)
        assert history[-1].loss is not None

    def test_eval_every_spacing(self):
        bowl, sim = _simulation()
        sim.evaluate = lambda params: {"loss": bowl.value(params)}
        history = sim.run(20, eval_every=7)
        evaluated = [r.round_index for r in history.evaluated]
        assert evaluated == [0, 7, 14, 19]

    def test_grad_norm_recorded_via_oracle(self):
        _bowl, sim = _simulation()
        history = sim.run(5, eval_every=1)
        assert all(r.grad_norm is not None for r in history)

    def test_quadratic_descent_without_byzantine(self):
        bowl, sim = _simulation(aggregator=Average(), sigma=0.05)
        sim.run(200, eval_every=50)
        assert bowl.distance_to_optimum(sim.params) < 0.5

    def test_selection_tracked_for_krum(self):
        _bowl, sim = _simulation(
            num_workers=11, num_byzantine=2, attack=GaussianAttack(sigma=50.0),
            aggregator=Krum(f=2),
        )
        history = sim.run(10)
        assert all(len(r.selected) == 1 for r in history)
        assert history.byzantine_selection_rate() == 0.0

    def test_sign_flip_breaks_average_but_not_krum(self):
        bowl, avg_sim = _simulation(
            aggregator=Average(),
            num_workers=11,
            num_byzantine=3,
            attack=SignFlipAttack(scale=4.0),
        )
        avg_sim.run(100)
        avg_dist = bowl.distance_to_optimum(avg_sim.params)

        bowl2, krum_sim = _simulation(
            aggregator=Krum(f=3),
            num_workers=11,
            num_byzantine=3,
            attack=SignFlipAttack(scale=4.0),
        )
        krum_sim.run(100)
        krum_dist = bowl2.distance_to_optimum(krum_sim.params)
        assert krum_dist < 1.0
        assert avg_dist > 2 * krum_dist

    def test_one_round_is_one_sgd_step_of_the_rule(self):
        """x₁ = x₀ − γ₀ · F(V₁, ..., Vₙ), with the proposals the workers
        draw from their own streams."""
        _bowl, sim = _simulation(aggregator=Average(), num_workers=5)
        x0 = sim.params
        proposals = np.stack(
            [
                worker.estimator.estimate(x0, copy.deepcopy(worker.rng))
                for worker in sim.honest_workers
            ]
        )
        record = sim.run_round()
        np.testing.assert_array_equal(
            sim.params, x0 - 0.1 * Average().aggregate(proposals)
        )
        assert record.round_index == 0
        assert record.learning_rate == 0.1

    def test_params_is_a_defensive_copy(self):
        _bowl, sim = _simulation()
        sim.params[:] = 99.0
        np.testing.assert_array_equal(sim.params, np.full(6, 10.0))
        sim.run(2)
        before = sim.params
        sim.params[:] = 99.0
        assert sim.params.tobytes() == before.tobytes()

    def test_schedule_applied_per_round(self):
        from repro.distributed.schedules import StepDecaySchedule
        from repro.gradients.oracle import GaussianOracleEstimator

        sim = TrainingSimulation(
            aggregator=Average(),
            schedule=StepDecaySchedule(1.0, period=1, factor=0.5),
            honest_estimators=[
                GaussianOracleEstimator(lambda x: np.ones(1), 1, sigma=0.0)
            ],
            initial_params=np.zeros(1),
        )
        history = sim.run(2)
        # x = 0 - 1.0*1 - 0.5*1
        np.testing.assert_array_equal(sim.params, [-1.5])
        assert [r.learning_rate for r in history] == [1.0, 0.5]

    def test_rejects_bad_run_args(self):
        _bowl, sim = _simulation()
        with pytest.raises(ConfigurationError):
            sim.run(0)
        with pytest.raises(ConfigurationError):
            sim.run(5, eval_every=0)


class TestHaltOnNonfinite:
    def test_constructor_kwarg_reaches_the_server(self):
        """Regression: TrainingSimulation never passed halt_on_nonfinite
        to its ParameterServer — the guard was unreachable through the
        public API and tests had to mutate sim.server post-hoc."""
        _bowl, sim = _simulation(halt_on_nonfinite=True)
        assert sim.server.halt_on_nonfinite is True
        _bowl, default_sim = _simulation()
        assert default_sim.server.halt_on_nonfinite is False

    def test_guard_trips_through_public_api(self):
        from repro.attacks.simple import NonFiniteAttack
        from repro.exceptions import SimulationError

        _bowl, sim = _simulation(
            aggregator=Average(),
            num_workers=9,
            num_byzantine=2,
            attack=NonFiniteAttack(),
            halt_on_nonfinite=True,
        )
        with pytest.raises(SimulationError, match="non-finite"):
            sim.run(5)


class TestAsyncRounds:
    def test_sync_construction_unchanged_by_delay_stream(self):
        """Spawning the extra delay stream must not perturb worker or
        attack streams: a sync run today matches a sync run built with
        an explicitly-None schedule."""
        _bowl, a = _simulation(seed=11)
        _bowl, b = _simulation(seed=11, delay_schedule=None, max_staleness=0)
        a.run(10)
        b.run(10)
        assert a.params.tobytes() == b.params.tobytes()

    def test_delay_schedule_by_registry_name(self):
        _bowl, sim = _simulation(
            delay_schedule="constant", max_staleness=2
        )
        assert sim.is_async
        history = sim.run(6)
        assert len(history) == 6

    def test_invalid_delay_schedule_type_rejected(self):
        with pytest.raises(ConfigurationError, match="delay_schedule"):
            _simulation(delay_schedule=42)

    def test_negative_max_staleness_rejected(self):
        with pytest.raises(ConfigurationError, match="max_staleness"):
            _simulation(max_staleness=-1)

    @pytest.mark.parametrize("bad", [1.5, True])
    def test_non_integer_max_staleness_rejected(self, bad):
        with pytest.raises(
            ConfigurationError, match="max_staleness must be an integer"
        ):
            _simulation(delay_schedule="constant", max_staleness=bad)

    def test_zero_staleness_with_schedule_matches_sync(self):
        """The degenerate async case (window closed) is bit-for-bit the
        synchronous trajectory."""
        _bowl, sync = _simulation(
            num_workers=11, num_byzantine=2, attack=GaussianAttack(), seed=5
        )
        _bowl, degenerate = _simulation(
            num_workers=11,
            num_byzantine=2,
            attack=GaussianAttack(),
            seed=5,
            delay_schedule="random",
            max_staleness=0,
        )
        sync_history = sync.run(15)
        degenerate_history = degenerate.run(15)
        assert sync.params.tobytes() == degenerate.params.tobytes()
        assert all(
            a == b for a, b in zip(sync_history, degenerate_history)
        )

    def test_stale_rounds_differ_from_sync(self):
        _bowl, sync = _simulation(seed=3)
        _bowl, stale = _simulation(
            seed=3, delay_schedule="constant", max_staleness=3
        )
        sync.run(12)
        stale.run(12)
        assert sync.params.tobytes() != stale.params.tobytes()

    def test_staleness_aware_rule_receives_staleness(self):
        from repro.core.staleness import KardamFilter
        from repro.distributed.delays import ConstantDelay
        from repro.gradients.oracle import GaussianOracleEstimator

        sim = TrainingSimulation(
            aggregator=KardamFilter(Average(), dampening="inverse"),
            schedule=ConstantSchedule(1.0),
            honest_estimators=[
                GaussianOracleEstimator(lambda x: np.ones(1), 1, sigma=0.0)
            ],
            initial_params=np.zeros(1),
            max_staleness=1,
            delay_schedule=ConstantDelay(tau=1),
        )
        sim.run(2)
        # Round 0 is fresh; round 1's one-round-stale proposal is
        # dampened by 1/(1+1).
        np.testing.assert_array_equal(sim.params, [-1.5])

    def test_attack_context_sees_staleness(self):
        from repro.attacks.base import Attack

        seen = {}

        class Probe(Attack):
            name = "probe"

            def craft(self, context):
                seen["honest_staleness"] = context.honest_staleness
                seen["byzantine_staleness"] = context.byzantine_staleness
                seen["honest_params"] = context.honest_params
                return np.zeros(
                    (context.num_byzantine, context.dimension)
                )

        _bowl, sim = _simulation(
            aggregator=Average(),
            num_workers=9,
            num_byzantine=2,
            attack=Probe(),
            delay_schedule="constant",
            max_staleness=2,
        )
        sim.run_round()  # round 0: no history yet, staleness clipped to 0
        assert seen["honest_staleness"].tolist() == [0] * 7
        sim.run_round()  # the default constant schedule lags tau = 1
        assert seen["honest_staleness"].tolist() == [1] * 7
        assert seen["byzantine_staleness"].tolist() == [1, 1]
        assert seen["honest_params"].shape == (7, 6)
