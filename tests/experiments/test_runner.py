"""Tests for the config-driven experiment runner."""

import pytest

from repro.data.synthetic import make_blobs
from repro.exceptions import ConfigurationError
from repro.experiments.config import SGDExperimentConfig
from repro.experiments.runner import compare_aggregators, run_experiment
from repro.models.softmax import SoftmaxRegressionModel


@pytest.fixture
def blobs():
    return make_blobs(150, num_classes=3, num_features=4, spread=0.5, seed=0)


def _config(**overrides):
    defaults = dict(
        num_workers=9,
        num_byzantine=2,
        num_rounds=30,
        aggregator="krum",
        aggregator_kwargs={"f": 2},
        attack="gaussian",
        attack_kwargs={"sigma": 50.0},
        learning_rate=0.3,
        batch_size=16,
        eval_every=10,
        seed=0,
    )
    defaults.update(overrides)
    return SGDExperimentConfig(**defaults)


class TestRunExperiment:
    def test_runs_config(self, blobs):
        history = run_experiment(_config(), SoftmaxRegressionModel(4, 3), blobs)
        assert len(history) == 30
        assert history.final_loss is not None

    def test_unknown_attack_name(self):
        # Fails at declaration, before any model or data is built.
        with pytest.raises(ConfigurationError, match="unknown attack"):
            _config(attack="quantum", attack_kwargs={})

    def test_f_zero_no_attack(self, blobs):
        config = _config(num_byzantine=0, attack=None, attack_kwargs={})
        history = run_experiment(config, SoftmaxRegressionModel(4, 3), blobs)
        assert history.final_accuracy > 0.5


class TestCompareAggregators:
    def test_same_workload_multiple_rules(self, blobs):
        base = _config()
        results = compare_aggregators(
            base,
            {
                "krum": ("krum", {"f": 2}),
                "average": ("average", {}),
                "median": ("coordinate-median", {}),
            },
            lambda: SoftmaxRegressionModel(4, 3),
            blobs,
        )
        assert set(results) == {"krum", "average", "median"}
        for history in results.values():
            assert len(history) == 30

    def test_krum_beats_average_under_attack(self, blobs):
        base = _config(
            num_rounds=60,
            attack="omniscient",
            attack_kwargs={"scale": 20.0},
        )
        results = compare_aggregators(
            base,
            {"krum": ("krum", {"f": 2}), "average": ("average", {})},
            lambda: SoftmaxRegressionModel(4, 3),
            blobs,
        )
        assert results["krum"].final_loss < results["average"].final_loss
