"""Declarative experiment configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attacks.registry import ATTACKS
from repro.backend.registry import BACKENDS
from repro.core.registry import AGGREGATORS
from repro.data.partition import PARTITION_PROTOCOLS
from repro.distributed.delays import DELAY_SCHEDULES
from repro.exceptions import ConfigurationError
from repro.servers.registry import SERVER_ATTACKS
from repro.topology.registry import TOPOLOGIES, make_topology

__all__ = ["SGDExperimentConfig"]


@dataclass(frozen=True)
class SGDExperimentConfig:
    """Parameters of one distributed-SGD experiment.

    ``aggregator``/``attack``/``backend`` are registry names plus
    keyword-argument dicts so configs stay serializable; the builders
    turn them into objects.  Names and kwargs are validated here;
    ``num_byzantine`` must also satisfy the chosen rule's precondition
    (checked at build time).
    ``backend=None`` (the default) runs the loop executor's numpy path;
    naming a backend routes batched execution (e.g.
    :func:`~repro.experiments.runner.compare_aggregators`) through that
    array backend's kernels.

    ``max_staleness``/``delay_schedule``+``delay_kwargs`` select the
    asynchronous round model (both default to the synchronous loop),
    ``num_servers``/``byzantine_servers``/``num_shards``/
    ``server_attack``+``server_attack_kwargs`` configure the
    parameter-server tier (defaults are the paper's single reliable
    server) and ``halt_on_nonfinite`` arms the parameter server's
    non-finite guard; all thread through the builders to
    :class:`~repro.distributed.TrainingSimulation`.
    """

    num_workers: int
    num_byzantine: int
    num_rounds: int
    aggregator: str
    aggregator_kwargs: dict = field(default_factory=dict)
    attack: str | None = None
    attack_kwargs: dict = field(default_factory=dict)
    learning_rate: float = 0.1
    lr_timescale: float | None = None  # None -> constant schedule
    batch_size: int = 32
    eval_every: int = 10
    seed: int = 0
    byzantine_slots: str = "last"
    partition: str = "iid"
    dirichlet_alpha: float = 0.5
    backend: str | None = None
    backend_kwargs: dict = field(default_factory=dict)
    max_staleness: int = 0
    delay_schedule: str | None = None
    delay_kwargs: dict = field(default_factory=dict)
    num_servers: int = 1
    byzantine_servers: int = 0
    num_shards: int = 1
    server_attack: str | None = None
    server_attack_kwargs: dict = field(default_factory=dict)
    halt_on_nonfinite: bool = False
    topology: str = "complete"
    degree: int | None = None
    edge_prob: float | None = None
    rewire_period: int | None = None

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ConfigurationError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        if not 0 <= self.num_byzantine < self.num_workers:
            raise ConfigurationError(
                f"need 0 <= f < n, got n={self.num_workers}, "
                f"f={self.num_byzantine}"
            )
        if self.num_rounds < 1:
            raise ConfigurationError(
                f"num_rounds must be >= 1, got {self.num_rounds}"
            )
        if self.num_byzantine > 0 and self.attack is None:
            raise ConfigurationError("num_byzantine > 0 requires an attack name")
        if self.num_byzantine == 0 and self.attack is not None:
            raise ConfigurationError(
                "an attack was supplied but num_byzantine=0"
            )
        # Every (name, kwargs) pair is validated at declaration time
        # without building anything (so an uninstalled backend stays a
        # build-time concern); the None arms reject kwargs given without
        # a name.
        AGGREGATORS.check(self.aggregator, self.aggregator_kwargs)
        ATTACKS.check_optional(self.attack, self.attack_kwargs)
        DELAY_SCHEDULES.check_optional(self.delay_schedule, self.delay_kwargs)
        SERVER_ATTACKS.check_optional(
            self.server_attack, self.server_attack_kwargs
        )
        BACKENDS.check_optional(self.backend, self.backend_kwargs)
        if self.learning_rate <= 0:
            raise ConfigurationError(
                f"learning_rate must be positive, got {self.learning_rate}"
            )
        if self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if self.partition not in PARTITION_PROTOCOLS:
            raise ConfigurationError(
                f"partition must be one of {PARTITION_PROTOCOLS}, "
                f"got {self.partition!r}"
            )
        if self.dirichlet_alpha <= 0:
            raise ConfigurationError(
                f"dirichlet_alpha must be positive, got {self.dirichlet_alpha}"
            )
        if self.max_staleness < 0:
            raise ConfigurationError(
                f"max_staleness must be >= 0, got {self.max_staleness}"
            )
        if self.num_servers < 1:
            raise ConfigurationError(
                f"num_servers must be >= 1, got {self.num_servers}"
            )
        if not 0 <= self.byzantine_servers <= self.num_servers:
            raise ConfigurationError(
                f"need 0 <= byzantine_servers <= num_servers, got "
                f"byzantine_servers={self.byzantine_servers} with "
                f"num_servers={self.num_servers}"
            )
        if self.num_shards < 1:
            raise ConfigurationError(
                f"num_shards must be >= 1, got {self.num_shards}"
            )
        if self.byzantine_servers > 0 and self.server_attack is None:
            raise ConfigurationError(
                "byzantine_servers > 0 requires a server_attack name"
            )
        if self.byzantine_servers == 0 and self.server_attack is not None:
            raise ConfigurationError(
                "a server_attack was supplied but byzantine_servers=0"
            )
        # Topology: unknown names and knobs the named graph family does
        # not take both fail at declaration time.
        for knob in ("degree", "edge_prob", "rewire_period"):
            value = getattr(self, knob)
            if value is not None and not TOPOLOGIES.accepts(
                self.topology, knob
            ):
                raise ConfigurationError(
                    f"topology {self.topology!r} does not take a "
                    f"{knob} parameter"
                )
        make_topology(self.topology, self.topology_kwargs)
        if self.is_gossip and (
            self.num_servers != 1
            or self.byzantine_servers != 0
            or self.num_shards != 1
            or self.server_attack is not None
        ):
            raise ConfigurationError(
                "the replicated/sharded server tier and gossip topologies "
                "are mutually exclusive — a decentralized run has no "
                "server to replicate"
            )
        if self.is_gossip and self.max_staleness != 0:
            raise ConfigurationError(
                "gossip runs model lag per edge via delay_schedule; "
                f"max_staleness={self.max_staleness} is a server-side knob "
                f"and must stay 0"
            )

    @property
    def is_gossip(self) -> bool:
        """Whether this config runs the serverless gossip engine (any
        topology other than the degenerate ``"complete"`` graph)."""
        return self.topology != "complete"

    @property
    def topology_kwargs(self) -> dict:
        """The non-None topology knobs as factory kwargs."""
        return {
            knob: getattr(self, knob)
            for knob in ("degree", "edge_prob", "rewire_period")
            if getattr(self, knob) is not None
        }

    @property
    def num_honest(self) -> int:
        return self.num_workers - self.num_byzantine
