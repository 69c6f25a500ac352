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
    WORKLOADS,
    DatasetWorkload,
    QuadraticWorkload,
    Task,
    Workload,
    register_workload,
    workload_key,
)
from repro.exceptions import ConfigurationError
from repro.experiments.builders import build_quadratic_simulation
from repro.gradients.minibatch import MinibatchEstimator
from repro.gradients.oracle import GaussianOracleEstimator
from repro.models.quadratic import QuadraticBowl
from tests.distributed.identity import (
    assert_identical,
    assert_loop_equals_batched,
)
from tests.engine.grids import workload_grids

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
        direct build_quadratic_simulation path."""
        workload = make_workload(
            "quadratic", {"dimension": 6, "sigma": 0.3, "curvature": 2.0}
        )
        spec = ScenarioSpec(
            seed=3,
            aggregator="krum",
            aggregator_kwargs={"f": 0, "strict": False},
            num_workers=5,
            workload_kwargs={"dimension": 6, "sigma": 0.3, "curvature": 2.0},
            learning_rate=0.1,
            lr_timescale=100.0,
        )
        via_workload = workload.build(spec)
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

    def test_bowl_is_shared_across_tasks(self):
        workload = make_workload("quadratic", {"dimension": 4})
        fns = {
            estimator.gradient_fn
            for seed in (0, 1)
            for estimator in workload.task(5, seed).honest_estimators
        }
        assert len(fns) == 1  # one bowl serves every cell

    def test_task_draws_x0_from_the_seed(self):
        workload = make_workload("quadratic", {"dimension": 4})
        first, again, other = (workload.task(3, s) for s in (0, 0, 1))
        assert len(first.honest_estimators) == 3
        assert np.array_equal(first.initial_params, again.initial_params)
        assert not np.array_equal(first.initial_params, other.initial_params)


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
        workload.task(4, 0)
        assert workload._data is not None

    def test_datasets_cached_across_builds(self):
        workload = make_workload("logistic-spambase", SMALL_DATASET_KWARGS)
        first = workload.datasets
        assert workload.datasets is first

    def test_task_uses_minibatch_estimators(self):
        workload = make_workload("logistic-spambase", SMALL_DATASET_KWARGS)
        task = workload.task(4, 0)
        assert len(task.honest_estimators) == 4
        assert all(
            isinstance(estimator, MinibatchEstimator)
            for estimator in task.honest_estimators
        )

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"partition": "striped"}, "partition"),
            ({"dirichlet_alpha": 0.0}, "dirichlet_alpha"),
            ({"batch_size": 0}, "batch_size"),
            ({"num_train": 0}, "num_train"),
        ],
    )
    def test_invalid_knobs_rejected(self, overrides, match):
        with pytest.raises(ConfigurationError, match=match):
            make_workload(
                "logistic-spambase", dict(SMALL_DATASET_KWARGS, **overrides)
            )

    def test_default_partition_is_iid(self):
        workload = make_workload("logistic-spambase", SMALL_DATASET_KWARGS)
        assert workload.partition == "iid"
        assert workload.dirichlet_alpha == 0.5

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
            ScenarioSpec(
                seed=0,
                aggregator="average",
                num_workers=4,
                workload="softmax-mnist",
                workload_kwargs=dict(
                    SMALL_DATASET_KWARGS, num_train=128, partition=partition
                ),
                lr_timescale=None,
            )
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


class TestSpecWorkloadKwargs:
    def test_quadratic_kwargs_complete_from_defaults(self):
        spec = ScenarioSpec(
            seed=0,
            aggregator="average",
            workload_kwargs={"dimension": 7, "sigma": 0.4},
        )
        assert spec.workload == "quadratic"
        assert spec.workload_kwargs == dict(
            QUADRATIC_DEFAULTS, dimension=7, sigma=0.4
        )

    def test_quadratic_knobs_rejected_on_dataset_workloads(self):
        spec = ScenarioSpec(
            seed=0,
            aggregator="average",
            workload="logistic-spambase",
            workload_kwargs={"dimension": 7},
        )
        assert spec.workload_kwargs == {"dimension": 7}
        with pytest.raises(ConfigurationError, match="accepted parameters"):
            build_scenario_simulation(spec)

    def test_equivalent_spellings_compare_equal(self):
        partial = ScenarioSpec(
            seed=0, aggregator="average", workload_kwargs={"dimension": 7}
        )
        spelled_out = ScenarioSpec(
            seed=0,
            aggregator="average",
            workload_kwargs=dict(QUADRATIC_DEFAULTS, dimension=7),
        )
        assert partial == spelled_out
        assert partial.label == spelled_out.label
        assert hash(partial) == hash(spelled_out)

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

    def test_singular_pair_equals_one_entry_axis(self):
        knobs = {"dimension": 5, "sigma": 0.3}
        singular = ScenarioGrid(workload_kwargs=knobs, **self._common())
        axis = ScenarioGrid(workloads=(("quadratic", knobs),), **self._common())
        assert singular.scenarios() == axis.scenarios()
        assert_identical(
            run_grid(singular, mode="batched", eval_every=2),
            run_grid(axis, mode="batched", eval_every=2),
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
    @pytest.mark.parametrize("name", list(workload_grids("small")))
    def test_every_workload_loop_vs_batched_bitwise(self, name):
        """One grid per registered workload plus a mixed-dimension grid;
        ``bench_engine_grid.py`` times the same grids at full scale."""
        assert_loop_equals_batched(workload_grids("small")[name], eval_every=2)

    def test_minibatch_workload_loop_vs_batched_bitwise(self):
        """The differential guarantee under a non-iid partition."""
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
        assert_loop_equals_batched(grid, eval_every=2)

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


class BlobsWorkload(DatasetWorkload):
    """A custom model + dataset, registered the way a user would."""

    name = "blobs-test"

    def __init__(
        self,
        num_train: int = 150,
        num_eval: int = 90,
        batch_size: int = 16,
        partition: str = "iid",
        dirichlet_alpha: float = 0.5,
        data_seed: int = 0,
    ):
        super().__init__(
            num_train=num_train,
            num_eval=num_eval,
            batch_size=batch_size,
            partition=partition,
            dirichlet_alpha=dirichlet_alpha,
            data_seed=data_seed,
        )

    def _build_model(self):
        from repro.models.softmax import SoftmaxRegressionModel

        return SoftmaxRegressionModel(4, 3)

    def _build_data(self):
        from repro.data.synthetic import make_blobs

        def blobs(size, seed):
            return make_blobs(
                size, num_classes=3, num_features=4, spread=0.5, seed=seed
            )

        return (
            blobs(self.num_train, self.data_seed),
            blobs(self.num_eval, self.data_seed + 1),
        )


class LineWorkload(Workload):
    """A task that is not a sharded dataset: only ``dimension`` and
    ``task`` are implemented, ``build`` is inherited."""

    name = "line-test"

    def __init__(self, dimension: int = 3):
        self._dimension = dimension

    @property
    def dimension(self) -> int:
        return self._dimension

    def task(self, num_honest: int, seed: int) -> Task:
        def gradient(x):
            return x

        return Task(
            honest_estimators=[
                GaussianOracleEstimator(gradient, self._dimension, 0.1)
                for _ in range(num_honest)
            ],
            initial_params=np.full(self._dimension, float(seed + 1)),
            true_gradient_fn=gradient,
        )


@pytest.fixture
def custom_workloads(monkeypatch):
    monkeypatch.setattr(WORKLOADS, "_factories", dict(WORKLOADS._factories))
    register_workload(BlobsWorkload.name, BlobsWorkload)
    register_workload(LineWorkload.name, LineWorkload)


def blobs_grid(**overrides):
    kwargs = dict(
        workload=BlobsWorkload.name,
        seeds=(0,),
        attacks=(("gaussian", {"sigma": 50.0}),),
        aggregators=(
            ("krum", {}),
            ("average", {}),
            ("coordinate-median", {}),
            ("geometric-median", {}),
        ),
        f_values=(2,),
        num_workers=9,
        num_rounds=30,
        learning_rate=0.3,
        lr_timescale=None,
    )
    kwargs.update(overrides)
    return ScenarioGrid(**kwargs)


class TestCustomWorkloads:
    """A custom model or dataset is a registered workload; comparing
    rules on it is one grid over the aggregator axis."""

    def test_several_rules_loop_equals_batched(self, custom_workloads):
        grid = blobs_grid(num_rounds=15)
        loop, _batched = assert_loop_equals_batched(grid, eval_every=5)
        assert len(loop.histories) == 4
        for history in loop.histories.values():
            assert len(history) == 15
            assert history.final_accuracy is not None

    def test_attack_free_cell_learns(self, custom_workloads):
        grid = blobs_grid(f_values=(0,), aggregators=(("krum", {}),))
        (history,) = run_grid(grid, eval_every=10).histories.values()
        assert history.final_accuracy > 0.5

    def test_krum_beats_average_under_attack(self, custom_workloads):
        grid = blobs_grid(
            num_rounds=60,
            attacks=(("omniscient", {"scale": 20.0}),),
            aggregators=(("krum", {}), ("average", {})),
        )
        result = run_grid(grid, eval_every=10)
        krum, average = (
            result.history(spec.label).final_loss for spec in result.specs
        )
        assert krum < average

    def test_task_only_workload_builds_both_engines(self, custom_workloads):
        from repro.distributed.simulator import TrainingSimulation
        from repro.topology import GossipSimulation

        def spec(**overrides):
            return ScenarioSpec(
                seed=2,
                aggregator="coordinate-median",
                num_workers=6,
                workload=LineWorkload.name,
                **overrides,
            )

        server = build_scenario_simulation(spec())
        gossip = build_scenario_simulation(spec(topology="ring", degree=2))
        assert isinstance(server, TrainingSimulation)
        assert isinstance(gossip, GossipSimulation)
        for simulation in (server, gossip):
            assert np.array_equal(simulation.params, np.full(3, 3.0))
            history = simulation.run(4, eval_every=2)
            assert history.records[-1].grad_norm is not None
