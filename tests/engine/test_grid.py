"""Unit tests for the ScenarioGrid spec and the engine executors."""

import numpy as np
import pytest

from repro.attacks.base import BenignAttack
from repro.attacks.registry import ATTACKS, register_attack
from repro.baselines.average import Average
from repro.core.krum import Krum
from repro.engine import (
    BatchedSimulation,
    ScenarioGrid,
    ScenarioSpec,
    build_scenario_simulation,
    run_grid,
)
from repro.distributed.simulator import TrainingSimulation
from repro.exceptions import ConfigurationError
from repro.experiments.builders import build_quadratic_simulation
from repro.models.quadratic import QuadraticBowl
from repro.topology import GossipSimulation


def small_grid(**overrides):
    defaults = dict(
        seeds=(0, 1),
        attacks=(("gaussian", {"sigma": 50.0}),),
        aggregators=(("krum", {}), ("average", {})),
        f_values=(0, 2),
        num_workers=9,
        workload_kwargs={"dimension": 5, "sigma": 0.3},
        num_rounds=6,
    )
    defaults.update(overrides)
    return ScenarioGrid(**defaults)


class TestScenarioGrid:
    def test_cartesian_expansion_and_len(self):
        grid = small_grid()
        cells = grid.scenarios()
        # 2 seeds × (2 rules × 1 attack at f=2  +  2 rules attack-free at f=0)
        assert len(cells) == 8
        assert len(grid) == len(cells)

    def test_f_zero_collapses_attack_axis(self):
        grid = small_grid(
            attacks=(
                ("gaussian", {"sigma": 50.0}),
                ("omniscient", {"scale": 2.0}),
            )
        )
        cells = grid.scenarios()
        f0 = [c for c in cells if c.num_byzantine == 0]
        assert all(c.attack is None for c in f0)
        # one attack-free cell per (seed, rule), not per attack
        assert len(f0) == 2 * 2

    def test_f_injected_only_where_accepted(self):
        cells = small_grid().scenarios()
        krum_cells = [c for c in cells if c.aggregator == "krum"]
        average_cells = [c for c in cells if c.aggregator == "average"]
        assert all(c.aggregator_kwargs.get("f") == c.num_byzantine for c in krum_cells)
        assert all("f" not in c.aggregator_kwargs for c in average_cells)

    def test_explicit_f_kwarg_wins(self):
        grid = small_grid(aggregators=(("krum", {"f": 1}),), f_values=(2,))
        cells = grid.scenarios()
        assert all(c.aggregator_kwargs["f"] == 1 for c in cells)

    def test_labels_unique(self):
        labels = [c.label for c in small_grid().scenarios()]
        assert len(set(labels)) == len(labels)

    def test_specs_are_hashable(self):
        cells = small_grid().scenarios()
        assert len(set(cells)) == len(cells)  # dedup via set must work

    def test_attack_parameter_sweep_labels_distinct(self):
        """Regression: sweeping the same attack at different strengths
        must produce distinct cell labels (attack kwargs are encoded)."""
        grid = small_grid(
            attacks=(
                ("gaussian", {"sigma": 1.0}),
                ("gaussian", {"sigma": 200.0}),
            ),
            f_values=(2,),
        )
        labels = [c.label for c in grid.scenarios()]
        assert len(set(labels)) == len(labels)
        result = run_grid(grid, mode="batched", eval_every=3)
        assert len(result.histories) == len(grid)

    def test_structural_character_kwargs_labels_distinct(self, monkeypatch):
        """Regression: kwargs values containing the label's structural
        characters (',', '=', '|') used to be able to collide — e.g.
        {"a": "1,b=2"} and {"a": 1, "b": 2} both encoded as "a=1,b=2".
        The repr-based encoding keeps them distinct."""
        # Specs validate their kwargs at declaration, so the arbitrary
        # kwargs below need an attack whose factory takes any keyword.
        monkeypatch.setattr(ATTACKS, "_factories", dict(ATTACKS._factories))
        register_attack("any-kwargs", lambda **kwargs: BenignAttack())
        colliding_pairs = [
            ({"a": "1,b=2"}, {"a": 1, "b": 2}),
            ({"a": "x|f=3"}, {"a": "x", "f": 3}),
            ({"scale": "2"}, {"scale": 2}),
            ({"parts": (("crash", 2),)}, {"parts": "(('crash', 2),)"}),
        ]
        for kwargs_a, kwargs_b in colliding_pairs:
            spec_a = ScenarioSpec(
                seed=0, aggregator="average", attack="any-kwargs",
                attack_kwargs=kwargs_a, num_byzantine=2,
            )
            spec_b = ScenarioSpec(
                seed=0, aggregator="average", attack="any-kwargs",
                attack_kwargs=kwargs_b, num_byzantine=2,
            )
            assert spec_a.label != spec_b.label, (kwargs_a, kwargs_b)

    def test_workload_kwargs_labels_distinct(self):
        """Workload kwargs are encoded into the label too, so a grid can
        sweep one workload at several configurations."""
        specs = [
            ScenarioSpec(
                seed=0, aggregator="average",
                workload="logistic-spambase",
                workload_kwargs={"partition": partition},
            )
            for partition in ("iid", "dirichlet")
        ]
        assert specs[0].label != specs[1].label

    def test_validate_builds_each_distinct_rule_once(self, monkeypatch):
        """Regression: validate() used to build one aggregator per cell;
        it must build each distinct (rule, kwargs, n) combination once."""
        import repro.engine.grid as grid_module

        calls = []
        real = grid_module.make_aggregator

        def counting(name, **kwargs):
            calls.append((name, tuple(sorted(kwargs.items()))))
            return real(name, **kwargs)

        monkeypatch.setattr(grid_module, "make_aggregator", counting)
        grid = small_grid(seeds=tuple(range(10)))
        grid.validate()
        # 2 rules × 2 f values (krum resolves f per cell; average is
        # f-free so both f cells share one combination) = 2 + 1 distinct.
        assert len(calls) == len(set(calls)) == 3
        assert len(calls) < len(grid)

    def test_invalid_f_rejected(self):
        with pytest.raises(ConfigurationError, match="0 <= f < n"):
            small_grid(f_values=(9,))

    @pytest.mark.parametrize("knob", ["num_rounds", "num_workers"])
    def test_non_positive_counts_rejected(self, knob):
        with pytest.raises(ConfigurationError, match=knob):
            small_grid(**{knob: 0})

    def test_positive_f_requires_attacks(self):
        with pytest.raises(ConfigurationError, match="no attacks"):
            small_grid(attacks=(), f_values=(2,))

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"aggregators": (("krun", {}),)}, "unknown aggregator 'krun'"),
            ({"aggregators": (("krum", {"m": 3}),)}, "aggregator 'krum'"),
            ({"attacks": (("gausian", {}),)}, "unknown attack 'gausian'"),
            ({"attacks": (("gaussian", {"sigm": 1.0}),)}, "attack 'gaussian'"),
        ],
    )
    def test_bad_rule_and_attack_specs_fail_at_declaration(
        self, overrides, match
    ):
        # Regression: these used to surface only in run_grid.
        with pytest.raises(ConfigurationError, match=match):
            small_grid(**overrides)

    def test_validate_surfaces_preconditions(self):
        # f = 4 violates Krum's 2f + 2 < n for n = 9.
        grid = small_grid(f_values=(4,))
        with pytest.raises(Exception, match="n"):
            grid.validate()

    def test_build_scenario_simulation(self):
        spec = small_grid().scenarios()[0]
        sim = build_scenario_simulation(spec)
        assert sim.num_workers == spec.num_workers
        assert sim.server.dimension == spec.workload_kwargs["dimension"]


class TestRunGrid:
    def test_result_shape(self):
        grid = small_grid()
        result = run_grid(grid, mode="batched", eval_every=3)
        assert len(result) == len(grid)
        for label, history in result.histories.items():
            assert len(history) == grid.num_rounds
            assert result.final_params[label].shape == (
                grid.workload_kwargs["dimension"],
            )
        assert result.wall_time > 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="mode"):
            run_grid(small_grid(), mode="warp")


class TestBatchedSimulation:
    def _sims(self, count=3, n=9, d=5):
        bowl = QuadraticBowl(d)
        return [
            build_quadratic_simulation(
                bowl,
                aggregator=Krum(f=2) if i % 2 else Average(),
                num_workers=n,
                num_byzantine=0,
                sigma=0.2,
                seed=i,
            )
            for i in range(count)
        ]

    def test_histories_in_input_order(self):
        sims = self._sims()
        batched = BatchedSimulation(sims)
        histories = batched.run(4, eval_every=2)
        assert len(histories) == len(sims)
        # Scenario order must survive the internal group reordering:
        # seeds differ, so the final params must match per-seed solo runs.
        solo = [s.run(4, eval_every=2) for s in self._sims()]
        for batched_history, solo_history in zip(histories, solo):
            assert batched_history.records == solo_history.records

    def test_params_property_in_input_order(self):
        sims = self._sims()
        batched = BatchedSimulation(sims)
        batched.run(3, eval_every=2)
        params = batched.params
        for i, solo in enumerate(self._sims()):
            solo.run(3, eval_every=2)
            np.testing.assert_array_equal(params[i], solo.params)

    def test_native_fraction(self):
        batched = BatchedSimulation(self._sims())
        assert batched.native_fraction == 1.0

    def test_mismatched_shapes_rejected(self):
        bowl5, bowl7 = QuadraticBowl(5), QuadraticBowl(7)
        sims = [
            build_quadratic_simulation(
                bowl, aggregator=Average(), num_workers=9,
                num_byzantine=0, sigma=0.1, seed=0,
            )
            for bowl in (bowl5, bowl7)
        ]
        with pytest.raises(ConfigurationError, match="share d"):
            BatchedSimulation(sims)

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            BatchedSimulation([])

    def test_partially_run_simulation_rejected(self):
        """Regression: a warm sim would silently restart schedules and
        attack round counters at t = 0; the constructor must refuse it."""
        sims = self._sims(count=2)
        sims[0].run_round()
        with pytest.raises(ConfigurationError, match="freshly built"):
            BatchedSimulation(sims)

    def test_consumed_simulations_rejected_on_reuse(self):
        """Regression: a batched run consumes its sims' RNG streams, so
        feeding them to a second BatchedSimulation (or running them
        directly) must trip the freshness guard, not silently diverge."""
        sims = self._sims(count=2)
        BatchedSimulation(sims).run(3, eval_every=2)
        with pytest.raises(ConfigurationError, match="freshly built"):
            BatchedSimulation(sims)

    def test_consumed_simulation_refuses_a_direct_run(self):
        """Regression: after a batched run, ``sim.params`` still returned
        x₀ and ``sim.run`` silently restarted from x₀ at round 5 on the
        advanced RNG streams.  Every direct use now names the executor
        that consumed the simulation."""
        sim = self._sims(count=1)[0]
        BatchedSimulation([sim]).run(5)
        for use in (lambda: sim.params, lambda: sim.run(2), sim.run_round):
            with pytest.raises(
                ConfigurationError, match="consumed by BatchedSimulation"
            ):
                use()

    def test_halt_on_nonfinite_guard_enforced(self):
        """Both executors enforce the server group's halt_on_nonfinite
        guard, with the same error."""
        from repro.attacks.simple import NonFiniteAttack
        from repro.exceptions import SimulationError

        def build():
            return build_quadratic_simulation(
                QuadraticBowl(4),
                aggregator=Average(),
                num_workers=7,
                num_byzantine=2,
                sigma=0.1,
                attack=NonFiniteAttack(),
                seed=0,
            )

        loop_sim, batched_sim = build(), build()
        loop_sim.server.halt_on_nonfinite = True
        batched_sim.server.halt_on_nonfinite = True
        with pytest.raises(SimulationError, match="non-finite") as loop_err:
            loop_sim.run(5)
        batched = BatchedSimulation([batched_sim])
        with pytest.raises(SimulationError, match="non-finite") as batched_err:
            batched.run(5)
        assert str(loop_err.value) == str(batched_err.value)


class TestTopologyAxis:
    def test_no_axis_means_no_label_suffix(self):
        assert all("topo=" not in c.label for c in small_grid().scenarios())

    def test_topology_axis_multiplies_len_and_suffixes_labels(self):
        grid = small_grid(
            topology_values=("complete", "ring"), degree=4
        )
        cells = grid.scenarios()
        assert len(cells) == 2 * len(small_grid())
        assert len(grid) == len(cells)
        complete = [c for c in cells if c.topology == "complete"]
        ring = [c for c in cells if c.topology == "ring"]
        assert all("topo=" not in c.label for c in complete)
        assert all("topo=ring(degree=4)" in c.label for c in ring)
        assert len(set(c.label for c in cells)) == len(cells)

    def test_degree_axis_collapses_where_not_accepted(self):
        """The degree sweep expands only under graph families that take
        a degree; the complete cells collapse to one — no duplicate
        labels."""
        grid = small_grid(
            topology_values=("complete", "ring"),
            degree_values=(4, 6),
        )
        cells = grid.scenarios()
        base = len(small_grid())
        # complete × 1 + ring × 2 degrees
        assert len(cells) == base + 2 * base
        labels = [c.label for c in cells]
        assert len(set(labels)) == len(labels)
        ring_degrees = {
            c.degree for c in cells if c.topology == "ring"
        }
        assert ring_degrees == {4, 6}
        assert all(
            c.degree is None for c in cells if c.topology == "complete"
        )

    def test_singular_and_plural_axes_exclusive(self):
        with pytest.raises(ConfigurationError, match="not both"):
            small_grid(topology="ring", topology_values=("ring",), degree=4)
        with pytest.raises(ConfigurationError, match="not both"):
            small_grid(
                topology="ring", degree=4, degree_values=(4, 6)
            )

    def test_knob_must_land_somewhere(self):
        with pytest.raises(ConfigurationError, match="edge_prob"):
            small_grid(topology="ring", degree=4, edge_prob=0.5)
        with pytest.raises(ConfigurationError, match="degree"):
            small_grid(topology="erdos-renyi", edge_prob=0.5, degree=4)

    def test_unknown_topology_rejected_eagerly(self):
        with pytest.raises(ConfigurationError, match="available"):
            small_grid(topology_values=("complete", "torus"))

    def test_gossip_excludes_staleness_sweep_and_server_axes(self):
        with pytest.raises(ConfigurationError):
            small_grid(topology="ring", degree=4, max_staleness_values=(0, 2))
        with pytest.raises(ConfigurationError):
            small_grid(topology="ring", degree=4, num_servers=3)

    def test_gossip_spec_builds_its_gossip_cell(self):
        """Regression: build_scenario_simulation used to build a gossip
        spec on the server path, ignoring its topology."""
        grid = ScenarioGrid(
            seeds=(0,),
            aggregators=(("average", {}),),
            f_values=(0,),
            num_workers=12,
            workload_kwargs={"dimension": 5},
            num_rounds=8,
            topology="ring",
            degree=2,
        )
        (spec,) = grid.scenarios()
        simulation = build_scenario_simulation(spec)
        assert isinstance(simulation, GossipSimulation)
        history = simulation.run(grid.num_rounds, eval_every=3)
        loop = run_grid(grid, mode="loop", eval_every=3)
        assert history.records == loop.histories[spec.label].records
        assert np.array_equal(simulation.params, loop.final_params[spec.label])

    def test_complete_spec_builds_the_server_cell(self):
        spec = small_grid(topology="complete").scenarios()[0]
        assert not spec.is_gossip
        simulation = build_scenario_simulation(spec)
        assert isinstance(simulation, TrainingSimulation)


class TestScenarioSpecValidation:
    """Regression: a spec used to accept these and fail only when its
    simulation was built."""

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"attack_kwargs": {"sigma": 1.0}}, "without a"),
            ({"num_byzantine": 2}, "requires an attack"),
            ({"attack": "gaussian"}, "num_byzantine=0"),
            ({"aggregator": "krun"}, "unknown aggregator 'krun'"),
            ({"aggregator_kwargs": {"f": 1}}, "aggregator 'average'"),
            (
                {"attack": "gausian", "num_byzantine": 2},
                "unknown attack 'gausian'",
            ),
            (
                {
                    "attack": "gaussian",
                    "attack_kwargs": {"sigm": 1.0},
                    "num_byzantine": 2,
                },
                "attack 'gaussian'",
            ),
            (
                {"num_workers": 3, "num_byzantine": 3, "attack": "gaussian"},
                "num_byzantine < num_workers",
            ),
            ({"num_byzantine": -1}, "num_byzantine < num_workers"),
            ({"max_staleness": -1}, "max_staleness"),
            ({"delay_kwargs": {"tau": 1}}, "without a"),
            ({"delay_schedule": "no-such-schedule"}, "available"),
            (
                {"delay_schedule": "constant", "delay_kwargs": {"bogus": 1}},
                "delay schedule",
            ),
            ({"num_servers": 0}, "num_servers"),
            ({"byzantine_servers": 1}, "byzantine_servers"),
            ({"server_attack": "sign-flip-broadcast"}, "byzantine_servers=0"),
            ({"topology": "torus"}, "available"),
            ({"topology": "ring", "edge_prob": 0.5}, "edge_prob"),
            ({"topology": "erdos-renyi", "degree": 4}, "degree"),
            ({"topology": "ring", "degree": 3}, "degree"),
            ({"topology": "ring", "num_servers": 3}, "exclusive"),
            ({"topology": "ring", "max_staleness": 2}, "max_staleness"),
        ],
    )
    def test_bad_specs_fail_at_declaration(self, overrides, match):
        with pytest.raises(ConfigurationError, match=match):
            ScenarioSpec(**{"seed": 0, "aggregator": "average", **overrides})

    def test_defaults_are_the_synchronous_complete_cell(self):
        spec = ScenarioSpec(seed=0, aggregator="average")
        assert spec.max_staleness == 0 and spec.delay_schedule is None
        assert not spec.halt_on_nonfinite
        assert not spec.is_gossip and spec.topology_kwargs == {}
        assert spec.async_label is None and spec.topology_label is None

    def test_valid_async_and_gossip_specs_accepted(self):
        stale = ScenarioSpec(
            seed=0, aggregator="average", max_staleness=3,
            delay_schedule="random", delay_kwargs={"max_delay": 3},
            halt_on_nonfinite=True,
        )
        assert stale.async_label == "stale<=3|random(max_delay=3)"
        ring = ScenarioSpec(
            seed=0, aggregator="average", topology="ring", degree=6
        )
        assert ring.is_gossip and ring.topology_kwargs == {"degree": 6}

    def test_frozen(self):
        spec = ScenarioSpec(seed=0, aggregator="average")
        with pytest.raises(AttributeError):
            spec.num_workers = 5


NON_POSITIVE_OR_NON_FINITE = [0.0, -0.1, float("nan"), float("inf")]


class TestLearningRateValidation:
    """Regression: bad step sizes used to be accepted at declaration —
    negative ones failed inside run_grid, and NaN trained to non-finite
    parameters without any error."""

    @pytest.mark.parametrize("knob", ["learning_rate", "lr_timescale"])
    @pytest.mark.parametrize("value", NON_POSITIVE_OR_NON_FINITE)
    def test_spec_rejects(self, knob, value):
        with pytest.raises(ConfigurationError, match=knob):
            ScenarioSpec(seed=0, aggregator="average", **{knob: value})

    @pytest.mark.parametrize("knob", ["learning_rate", "lr_timescale"])
    @pytest.mark.parametrize("value", NON_POSITIVE_OR_NON_FINITE)
    def test_grid_rejects_at_declaration(self, knob, value):
        with pytest.raises(ConfigurationError, match=knob):
            small_grid(**{knob: value})

    def test_constant_schedule_is_accepted(self):
        spec = ScenarioSpec(seed=0, aggregator="average", lr_timescale=None)
        assert spec.lr_timescale is None
