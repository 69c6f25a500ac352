"""Tests for experiment configuration."""

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.config import SGDExperimentConfig


def _config(**overrides):
    defaults = dict(
        num_workers=11,
        num_byzantine=2,
        num_rounds=50,
        aggregator="krum",
        aggregator_kwargs={"f": 2},
        attack="gaussian",
    )
    defaults.update(overrides)
    return SGDExperimentConfig(**defaults)


class TestSGDExperimentConfig:
    def test_valid_config(self):
        config = _config()
        assert config.num_honest == 9

    def test_rejects_f_ge_n(self):
        with pytest.raises(ConfigurationError):
            _config(num_byzantine=11)

    def test_rejects_byzantine_without_attack(self):
        with pytest.raises(ConfigurationError, match="attack"):
            _config(attack=None)

    def test_f_zero_without_attack_is_fine(self):
        config = _config(num_byzantine=0, attack=None)
        assert config.num_honest == 11

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"num_byzantine": 0}, "num_byzantine=0"),
            ({"num_byzantine": 0, "attack": None, "attack_kwargs": {"a": 1}},
             "without a"),
            ({"aggregator": "krun"}, "unknown aggregator 'krun'"),
            ({"aggregator_kwargs": {"f": 2, "m": 3}}, "aggregator 'krum'"),
            ({"attack": "gausian"}, "unknown attack 'gausian'"),
            ({"attack_kwargs": {"sigm": 1.0}}, "attack 'gaussian'"),
        ],
    )
    def test_bad_specs_fail_at_declaration(self, overrides, match):
        # Regression: these used to be accepted and fail only when the
        # experiment was built.
        with pytest.raises(ConfigurationError, match=match):
            _config(**overrides)

    def test_rejects_bad_learning_rate(self):
        with pytest.raises(ConfigurationError):
            _config(learning_rate=0.0)

    def test_rejects_bad_rounds(self):
        with pytest.raises(ConfigurationError):
            _config(num_rounds=0)

    def test_rejects_bad_batch(self):
        with pytest.raises(ConfigurationError):
            _config(batch_size=0)

    def test_frozen(self):
        config = _config()
        with pytest.raises(AttributeError):
            config.num_workers = 5


class TestPartitionKnobs:
    def test_defaults(self):
        config = _config()
        assert config.partition == "iid"
        assert config.dirichlet_alpha == 0.5

    def test_rejects_unknown_partition(self):
        with pytest.raises(ConfigurationError, match="partition"):
            _config(partition="striped")

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ConfigurationError, match="dirichlet_alpha"):
            _config(dirichlet_alpha=0.0)


class TestAsyncConfigFields:
    def test_defaults_are_synchronous(self):
        config = SGDExperimentConfig(
            num_workers=10, num_byzantine=0, num_rounds=5, aggregator="average"
        )
        assert config.max_staleness == 0
        assert config.delay_schedule is None
        assert config.halt_on_nonfinite is False

    def test_negative_staleness_rejected(self):
        with pytest.raises(ConfigurationError, match="max_staleness"):
            SGDExperimentConfig(
                num_workers=10, num_byzantine=0, num_rounds=5,
                aggregator="average", max_staleness=-1,
            )

    def test_delay_kwargs_require_schedule(self):
        with pytest.raises(ConfigurationError, match="without a"):
            SGDExperimentConfig(
                num_workers=10, num_byzantine=0, num_rounds=5,
                aggregator="average", delay_kwargs={"tau": 1},
            )

    def test_bad_delay_schedule_fails_at_declaration(self):
        with pytest.raises(ConfigurationError, match="available"):
            SGDExperimentConfig(
                num_workers=10, num_byzantine=0, num_rounds=5,
                aggregator="average", delay_schedule="no-such-schedule",
            )
        with pytest.raises(ConfigurationError, match="delay schedule"):
            SGDExperimentConfig(
                num_workers=10, num_byzantine=0, num_rounds=5,
                aggregator="average", delay_schedule="constant",
                delay_kwargs={"bogus": 1},
            )

    def test_valid_async_config_accepted(self):
        config = SGDExperimentConfig(
            num_workers=10, num_byzantine=0, num_rounds=5,
            aggregator="average", max_staleness=3,
            delay_schedule="random", delay_kwargs={"max_delay": 3},
            halt_on_nonfinite=True,
        )
        assert config.max_staleness == 3


class TestTopologyConfigFields:
    def _config(self, **overrides):
        kwargs = dict(
            num_workers=10, num_byzantine=0, num_rounds=5,
            aggregator="average",
        )
        kwargs.update(overrides)
        return SGDExperimentConfig(**kwargs)

    def test_defaults_are_the_degenerate_complete_graph(self):
        config = self._config()
        assert config.topology == "complete"
        assert not config.is_gossip
        assert config.topology_kwargs == {}

    def test_gossip_config_accepted(self):
        config = self._config(topology="ring", degree=6)
        assert config.is_gossip
        assert config.topology_kwargs == {"degree": 6}

    def test_unknown_topology_fails_at_declaration(self):
        with pytest.raises(ConfigurationError, match="available"):
            self._config(topology="torus")

    def test_knob_for_wrong_family_rejected(self):
        with pytest.raises(ConfigurationError, match="edge_prob"):
            self._config(topology="ring", edge_prob=0.5)
        with pytest.raises(ConfigurationError, match="degree"):
            self._config(topology="erdos-renyi", degree=4)

    def test_bad_knob_value_fails_at_declaration(self):
        with pytest.raises(ConfigurationError):
            self._config(topology="ring", degree=3)  # odd

    def test_gossip_excludes_server_tier(self):
        with pytest.raises(ConfigurationError, match="exclusive"):
            self._config(topology="ring", num_servers=3)

    def test_gossip_excludes_max_staleness(self):
        with pytest.raises(ConfigurationError, match="max_staleness"):
            self._config(topology="ring", max_staleness=2)
