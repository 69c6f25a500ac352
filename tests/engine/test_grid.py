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
from repro.exceptions import ConfigurationError
from repro.experiments.builders import build_quadratic_simulation
from repro.models.quadratic import QuadraticBowl


def small_grid(**overrides):
    defaults = dict(
        seeds=(0, 1),
        attacks=(("gaussian", {"sigma": 50.0}),),
        aggregators=(("krum", {}), ("average", {})),
        f_values=(0, 2),
        num_workers=9,
        dimension=5,
        sigma=0.3,
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
        assert sim.server.dimension == spec.dimension


class TestRunGrid:
    def test_result_shape(self):
        grid = small_grid()
        result = run_grid(grid, mode="batched", eval_every=3)
        assert len(result) == len(grid)
        for label, history in result.histories.items():
            assert len(history) == grid.num_rounds
            assert result.final_params[label].shape == (grid.dimension,)
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

    def test_halt_on_nonfinite_guard_enforced(self):
        """Regression: the batched executor advances parameters outside
        ParameterServer.step, so it must enforce the server's
        halt_on_nonfinite guard itself — same error as the loop path."""
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

    def test_gossip_spec_routes_to_gossip_simulation(self):
        from repro.engine.runner import build_gossip_simulation
        from repro.topology import GossipSimulation

        spec = small_grid(topology="ring", degree=4).scenarios()[0]
        assert spec.is_gossip
        simulation = build_gossip_simulation(spec)
        assert isinstance(simulation, GossipSimulation)

    def test_build_gossip_rejects_degenerate_spec(self):
        from repro.engine.runner import build_gossip_simulation

        spec = small_grid().scenarios()[0]
        with pytest.raises(ConfigurationError):
            build_gossip_simulation(spec)


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
        ],
    )
    def test_bad_specs_fail_at_declaration(self, overrides, match):
        with pytest.raises(ConfigurationError, match=match):
            ScenarioSpec(**{"seed": 0, "aggregator": "average", **overrides})
