"""Tests for the workload registry and the workload-parametric grid API.

The shared registry contract (unknown names, bad kwargs, name
validation) is tested once for every family in
``tests/utils/test_registry_contract.py``.
"""

import numpy as np
import pytest

from repro.core.krum import Krum
from repro.engine import (
    ScenarioGrid,
    ScenarioSpec,
    available_workloads,
    build_scenario_simulation,
    make_workload,
    run_grid,
    workload_factory,
)
from repro.engine.workloads import (
    QUADRATIC_DEFAULTS,
    DatasetWorkload,
    QuadraticWorkload,
    workload_key,
)
from repro.exceptions import ConfigurationError
from repro.experiments.builders import build_quadratic_simulation
from repro.gradients.minibatch import MinibatchEstimator
from repro.models.quadratic import QuadraticBowl

EXPECTED_BUILTINS = {
    "quadratic",
    "logistic-spambase",
    "softmax-mnist",
    "mlp-mnist",
}

SMALL_DATASET_KWARGS = {
    "num_train": 64,
    "num_eval": 32,
    "batch_size": 8,
}


class TestRegistry:
    def test_builtins_registered(self):
        assert EXPECTED_BUILTINS <= set(available_workloads())

    def test_round_trip_name(self):
        """name + kwargs → instance → name, for every built-in."""
        for name in EXPECTED_BUILTINS:
            kwargs = {} if name == "quadratic" else dict(SMALL_DATASET_KWARGS)
            workload = make_workload(name, kwargs)
            assert workload.name == name
            assert workload.dimension >= 1

    def test_factory_introspection(self):
        assert workload_factory("quadratic") is QuadraticWorkload

    def test_workload_key_handles_unhashable_kwargs(self):
        key = workload_key("quadratic", {"dimension": [1, 2]})
        assert key == workload_key("quadratic", {"dimension": [1, 2]})
        assert key != workload_key("quadratic", {"dimension": (1, 2)})
        hash(key)  # must be usable as a dict key


class TestQuadraticWorkload:
    def test_invalid_knobs_rejected(self):
        with pytest.raises(ConfigurationError, match="dimension"):
            make_workload("quadratic", {"dimension": 0})
        with pytest.raises(ConfigurationError, match="sigma"):
            make_workload("quadratic", {"sigma": -1.0})
        with pytest.raises(ConfigurationError, match="curvature"):
            make_workload("quadratic", {"curvature": 0.0})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"curvature": float("nan")},
            {"curvature": float("inf")},
            {"sigma": float("nan")},
            {"sigma": float("inf")},
        ],
    )
    def test_non_finite_knobs_rejected(self, kwargs):
        (knob,) = kwargs
        with pytest.raises(ConfigurationError, match=f"{knob} must be"):
            make_workload("quadratic", kwargs)

    def test_matches_direct_builder(self):
        """The workload's simulation is trajectory-identical to the
        pre-redesign direct build_quadratic_simulation path."""
        workload = make_workload(
            "quadratic", {"dimension": 6, "sigma": 0.3, "curvature": 2.0}
        )
        via_workload = workload.build(
            aggregator=Krum(f=0, strict=False),
            num_workers=5,
            num_byzantine=0,
            attack=None,
            learning_rate=0.1,
            lr_timescale=100.0,
            byzantine_slots="last",
            seed=3,
        )
        direct = build_quadratic_simulation(
            QuadraticBowl(6, curvature=2.0),
            aggregator=Krum(f=0, strict=False),
            num_workers=5,
            num_byzantine=0,
            sigma=0.3,
            learning_rate=0.1,
            lr_timescale=100.0,
            seed=3,
        )
        a = via_workload.run(5, eval_every=2)
        b = direct.run(5, eval_every=2)
        assert a.records == b.records

    def test_bowl_is_shared_across_builds(self):
        workload = make_workload("quadratic", {"dimension": 4})
        sims = [
            workload.build(
                aggregator=Krum(f=0, strict=False),
                num_workers=5,
                num_byzantine=0,
                attack=None,
                learning_rate=0.1,
                lr_timescale=None,
                byzantine_slots="last",
                seed=s,
            )
            for s in (0, 1)
        ]
        fns = {
            w.estimator.gradient_fn
            for sim in sims
            for w in sim.honest_workers
        }
        assert len(fns) == 1  # one bowl serves every cell


class TestDatasetWorkloads:
    @pytest.mark.parametrize(
        "name,dimension",
        [
            ("logistic-spambase", 58),  # 57 features + bias
            ("softmax-mnist", 7850),  # 784·10 + 10
        ],
    )
    def test_declared_dimension(self, name, dimension):
        workload = make_workload(name, SMALL_DATASET_KWARGS)
        assert workload.dimension == dimension

    def test_mlp_dimension_matches_architecture(self):
        workload = make_workload(
            "mlp-mnist", dict(SMALL_DATASET_KWARGS, hidden_sizes=(16,))
        )
        assert workload.dimension == 784 * 16 + 16 + 16 * 10 + 10

    def test_lazy_materialization(self):
        """Constructing a dataset workload must not generate data —
        that is what makes grid validation cheap."""
        workload = make_workload("softmax-mnist", SMALL_DATASET_KWARGS)
        assert isinstance(workload, DatasetWorkload)
        assert workload._data is None
        workload.build(
            aggregator=Krum(f=0, strict=False),
            num_workers=4,
            num_byzantine=0,
            attack=None,
            learning_rate=0.1,
            lr_timescale=None,
            byzantine_slots="last",
            seed=0,
        )
        assert workload._data is not None

    def test_datasets_cached_across_builds(self):
        workload = make_workload("logistic-spambase", SMALL_DATASET_KWARGS)
        first = workload.datasets
        assert workload.datasets is first

    def test_build_uses_minibatch_estimators(self):
        workload = make_workload("logistic-spambase", SMALL_DATASET_KWARGS)
        sim = workload.build(
            aggregator=Krum(f=0, strict=False),
            num_workers=4,
            num_byzantine=0,
            attack=None,
            learning_rate=0.1,
            lr_timescale=None,
            byzantine_slots="last",
            seed=0,
        )
        assert all(
            isinstance(w.estimator, MinibatchEstimator)
            for w in sim.honest_workers
        )

    def test_invalid_partition_rejected(self):
        with pytest.raises(ConfigurationError, match="partition"):
            make_workload(
                "logistic-spambase",
                dict(SMALL_DATASET_KWARGS, partition="striped"),
            )

    @pytest.mark.parametrize("partition", ["iid", "dirichlet", "label-shard"])
    def test_partitions_materialize(self, partition):
        workload = make_workload(
            "softmax-mnist",
            dict(
                SMALL_DATASET_KWARGS,
                num_train=128,
                partition=partition,
            ),
        )
        sim = workload.build(
            aggregator=Krum(f=0, strict=False),
            num_workers=4,
            num_byzantine=0,
            attack=None,
            learning_rate=0.1,
            lr_timescale=None,
            byzantine_slots="last",
            seed=0,
        )
        history = sim.run(2, eval_every=1)
        assert history.final_loss is not None


class TestMinibatchTwoPhase:
    def test_estimate_equals_draw_then_gradient(self, rng):
        """The split API must be bit-for-bit the composed estimate."""
        from repro.data.spambase_like import make_spambase_like
        from repro.models.logistic import LogisticRegressionModel

        data = make_spambase_like(64, seed=0)
        model = LogisticRegressionModel(57)
        estimator = MinibatchEstimator(
            model, data.inputs, data.targets, batch_size=8
        )
        params = model.init_params(rng)
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        direct = estimator.estimate(params, rng_a)
        split = estimator.gradient_at(params, estimator.draw_indices(rng_b))
        assert direct.tobytes() == split.tobytes()
        # Both consumed the stream identically.
        assert rng_a.integers(0, 1 << 30) == rng_b.integers(0, 1 << 30)

    def test_subclass_overriding_estimate_takes_generic_path(self):
        """A MinibatchEstimator subclass whose estimate() does not
        decompose into draw_indices + gradient_at must not be routed
        through the two-phase fast path — the loop/batched identity has
        to hold for it too (via the generic per-worker estimate path)."""
        from repro.baselines.average import Average
        from repro.data.spambase_like import make_spambase_like
        from repro.distributed.schedules import ConstantSchedule
        from repro.distributed.simulator import TrainingSimulation
        from repro.engine import BatchedSimulation
        from repro.models.logistic import LogisticRegressionModel

        class ScaledEstimator(MinibatchEstimator):
            def estimate(self, params, rng):
                # Consumes extra randomness: not draw+gradient composable.
                return super().estimate(params, rng) * rng.uniform(0.5, 1.5)

        data = make_spambase_like(64, seed=0)
        model = LogisticRegressionModel(57)

        def build():
            return TrainingSimulation(
                aggregator=Average(),
                schedule=ConstantSchedule(0.1),
                honest_estimators=[
                    ScaledEstimator(
                        model, data.inputs, data.targets, batch_size=8
                    )
                    for _ in range(4)
                ],
                initial_params=model.init_params(
                    np.random.default_rng(0)
                ),
                seed=5,
            )

        batched = BatchedSimulation([build()])
        assert not batched._scenarios[0].minibatch
        batched_histories = batched.run(4, eval_every=2)
        loop_history = build().run(4, eval_every=2)
        assert batched_histories[0].records == loop_history.records


class TestSpecShim:
    def test_old_scalar_fields_configure_quadratic(self):
        spec = ScenarioSpec(seed=0, aggregator="average", dimension=7, sigma=0.4)
        assert spec.workload == "quadratic"
        assert spec.workload_kwargs["dimension"] == 7
        assert spec.workload_kwargs["sigma"] == 0.4
        assert spec.dimension == 7  # read-back stays intact
        assert spec.curvature == QUADRATIC_DEFAULTS["curvature"]

    def test_scalar_fields_rejected_on_dataset_workloads(self):
        with pytest.raises(ConfigurationError, match="quadratic-workload"):
            ScenarioSpec(
                seed=0,
                aggregator="average",
                workload="logistic-spambase",
                dimension=7,
            )

    def test_conflicting_scalar_and_kwarg_rejected(self):
        with pytest.raises(ConfigurationError, match="pick one"):
            ScenarioSpec(
                seed=0,
                aggregator="average",
                dimension=7,
                workload_kwargs={"dimension": 9},
            )

    def test_equivalent_spellings_compare_equal(self):
        old_style = ScenarioSpec(seed=0, aggregator="average", dimension=7)
        new_style = ScenarioSpec(
            seed=0,
            aggregator="average",
            workload_kwargs=dict(QUADRATIC_DEFAULTS, dimension=7),
        )
        assert old_style == new_style
        assert old_style.label == new_style.label
        assert hash(old_style) == hash(new_style)

    def test_dataset_spec_builds(self):
        spec = ScenarioSpec(
            seed=0,
            aggregator="average",
            workload="logistic-spambase",
            workload_kwargs=dict(SMALL_DATASET_KWARGS),
            num_workers=4,
        )
        sim = build_scenario_simulation(spec)
        assert sim.num_workers == 4
        assert sim.server.dimension == 58


class TestGridWorkloadAxis:
    def _common(self):
        return dict(
            seeds=(0,),
            attacks=(("gaussian", {"sigma": 10.0}),),
            aggregators=(("average", {}),),
            f_values=(0, 2),
            num_workers=7,
            num_rounds=3,
        )

    def test_workloads_axis_expands(self):
        grid = ScenarioGrid(
            workloads=(
                ("quadratic", {"dimension": 5}),
                ("logistic-spambase", dict(SMALL_DATASET_KWARGS)),
            ),
            **self._common(),
        )
        cells = grid.scenarios()
        assert len(grid) == len(cells) == 4
        assert {c.workload for c in cells} == {
            "quadratic",
            "logistic-spambase",
        }

    def test_axis_and_singular_pair_conflict(self):
        with pytest.raises(ConfigurationError, match="not both"):
            ScenarioGrid(
                workload="softmax-mnist",
                workloads=(("quadratic", {}),),
                **self._common(),
            )

    def test_axis_and_deprecated_scalars_conflict(self):
        with pytest.raises(ConfigurationError, match="workloads axis"):
            ScenarioGrid(
                workloads=(("quadratic", {}),),
                dimension=5,
                **self._common(),
            )

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one workload"):
            ScenarioGrid(workloads=(), **self._common())

    def test_unknown_workload_fails_at_declaration(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            ScenarioGrid(workload="imagenet", **self._common())

    def test_bad_workload_kwargs_fail_at_declaration(self):
        with pytest.raises(ConfigurationError, match="accepted parameters"):
            ScenarioGrid(
                workload="softmax-mnist",
                workload_kwargs={"bogus": 1},
                **self._common(),
            )

    def test_old_grid_call_sites_construct_equivalent_quadratic_grid(self):
        """Acceptance criterion: pre-redesign ScenarioGrid(...) with the
        scalar workload knobs still builds the equivalent grid."""
        old_style = ScenarioGrid(dimension=5, sigma=0.3, **self._common())
        new_style = ScenarioGrid(
            workload_kwargs={"dimension": 5, "sigma": 0.3},
            **self._common(),
        )
        assert old_style.scenarios() == new_style.scenarios()
        assert old_style.dimension == 5  # read-back stays intact
        old_result = run_grid(old_style, mode="batched", eval_every=2)
        new_result = run_grid(new_style, mode="batched", eval_every=2)
        assert set(old_result.histories) == set(new_result.histories)
        for label in old_result.histories:
            assert (
                old_result.final_params[label].tobytes()
                == new_result.final_params[label].tobytes()
            )

    def test_distinct_workloads_deduplicates(self):
        grid = ScenarioGrid(
            workloads=(
                ("quadratic", {"dimension": 5}),
                ("quadratic", {"dimension": 5}),
                ("quadratic", {"dimension": 6}),
            ),
            seeds=(0,),
            aggregators=(("average", {}),),
            f_values=(0,),
            num_workers=5,
        )
        assert len(grid.distinct_workloads()) == 2


class TestRunGridDatasetWorkloads:
    def test_minibatch_workload_loop_vs_batched_bitwise(self):
        """The differential guarantee on a minibatch workload: every
        record and final parameter bit-for-bit across executors."""
        grid = ScenarioGrid(
            seeds=(0, 1),
            workload="logistic-spambase",
            workload_kwargs=dict(SMALL_DATASET_KWARGS, partition="dirichlet"),
            attacks=(("sign-flip", {"scale": 4.0}),),
            aggregators=(("krum", {}), ("average", {})),
            f_values=(0, 2),
            num_workers=7,
            num_rounds=6,
            learning_rate=0.1,
            lr_timescale=None,
        )
        loop = run_grid(grid, mode="loop", eval_every=2)
        batched = run_grid(grid, mode="batched", eval_every=2)
        assert set(loop.histories) == set(batched.histories)
        for label in loop.histories:
            assert (
                loop.final_params[label].tobytes()
                == batched.final_params[label].tobytes()
            ), f"final params diverged for {label}"
            assert (
                loop.histories[label].records
                == batched.histories[label].records
            ), f"history diverged for {label}"

    def test_mixed_dimension_grid_batches_per_dimension(self):
        grid = ScenarioGrid(
            workloads=(
                ("quadratic", {"dimension": 5}),
                ("quadratic", {"dimension": 9}),
                ("logistic-spambase", dict(SMALL_DATASET_KWARGS)),
            ),
            seeds=(0,),
            aggregators=(("average", {}),),
            f_values=(0,),
            num_workers=5,
            num_rounds=3,
        )
        result = run_grid(grid, mode="batched", eval_every=2)
        shapes = {
            spec.label: result.final_params[spec.label].shape
            for spec in result.specs
        }
        assert set(shapes.values()) == {(5,), (9,), (58,)}
        assert result.native_fraction == 1.0

    def test_workload_instances_shared_across_cells(self, monkeypatch):
        """run_grid must materialize each distinct workload spec once."""
        import repro.engine.runner as runner_module

        calls = []
        real = runner_module.make_workload

        def counting(name, kwargs=None):
            calls.append(name)
            return real(name, kwargs)

        monkeypatch.setattr(runner_module, "make_workload", counting)
        grid = ScenarioGrid(
            seeds=(0, 1, 2),
            workload="logistic-spambase",
            workload_kwargs=dict(SMALL_DATASET_KWARGS),
            aggregators=(("krum", {}), ("average", {})),
            f_values=(0,),
            num_workers=5,
            num_rounds=2,
        )
        run_grid(grid, mode="batched", eval_every=1)
        assert calls == ["logistic-spambase"]
