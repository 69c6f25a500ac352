"""Declarative scenario grids — the cartesian experiment spec.

The paper's figures are grids: seeds × workloads × attacks ×
aggregators × f.  :class:`ScenarioGrid` declares such a grid once;
:meth:`ScenarioGrid.scenarios` expands it into concrete
:class:`ScenarioSpec` cells that the engine materializes and runs —
either one-by-one through :class:`~repro.distributed.TrainingSimulation`
(the loop executor) or stacked into ``(B, n, d)`` tensors by
:class:`~repro.engine.simulation.BatchedSimulation`.

Workload, aggregator and attack specs are all registry names plus
kwargs.  The workload axis defaults to the paper's analytic setting
(``"quadratic"``); dataset-backed workloads from
:mod:`repro.engine.workloads` slot in the same way, and a grid may sweep
several workloads at once via ``workloads=...``.  ``f`` is injected into
any rule whose factory accepts an ``f`` parameter (Krum, trimmed mean,
...), while f-free rules (averaging, coordinate median) ride through
unchanged.  Cells with ``f = 0`` are attack-free by definition, so the
grid collapses the attack axis there to a single ``attack=None`` cell
instead of emitting one duplicate per attack.

Backwards compatibility: the pre-workload API spelled the quadratic
knobs as scalar grid/spec fields (``dimension``, ``sigma``,
``curvature``).  Those fields survive as a deprecation shim — when
given, they are folded into the quadratic workload's kwargs, so old
call sites construct the equivalent grid unchanged.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import product

from repro.attacks.registry import ATTACKS
from repro.core.registry import AGGREGATORS, make_aggregator
from repro.distributed.delays import make_delay_schedule
from repro.engine.workloads import (
    QUADRATIC_DEFAULTS,
    make_workload,
    workload_key,
)
from repro.exceptions import ConfigurationError
from repro.servers.registry import SERVER_ATTACKS, make_server_attack
from repro.topology.registry import TOPOLOGIES, make_topology

__all__ = ["ScenarioSpec", "ScenarioGrid"]

# The deprecated scalar knobs and the quadratic workload kwargs they
# map onto (the shim below).
_QUADRATIC_SHIM_FIELDS = ("dimension", "sigma", "curvature")

# Spec/grid fields forwarded as topology factory kwargs when non-None.
_TOPOLOGY_KNOBS = ("degree", "edge_prob", "rewire_period")


def _resolve_quadratic_shim(
    owner: str,
    workload: str,
    workload_kwargs: Mapping,
    scalars: Mapping[str, object],
) -> dict:
    """Fold deprecated scalar quadratic knobs into workload kwargs.

    Returns the resolved kwargs dict (with quadratic defaults filled in
    so equal configurations compare equal however they were spelled).
    Raises when a scalar knob is combined with a non-quadratic workload
    or contradicts an explicit workload kwarg.
    """
    given = {k: v for k, v in scalars.items() if v is not None}
    if workload != "quadratic":
        if given:
            raise ConfigurationError(
                f"{owner} fields {sorted(given)} are quadratic-workload "
                f"knobs; move them into workload_kwargs of workload "
                f"{workload!r} (or drop them)"
            )
        return dict(workload_kwargs)
    resolved = dict(workload_kwargs)
    for key, value in given.items():
        if key in resolved and resolved[key] != value:
            raise ConfigurationError(
                f"{owner} got {key}={value!r} and "
                f"workload_kwargs[{key!r}]={resolved[key]!r}; pick one"
            )
        resolved[key] = value
    for key, default in QUADRATIC_DEFAULTS.items():
        resolved.setdefault(key, default)
    return resolved


def _encode_kwargs(name: str, kwargs: Mapping) -> str:
    """Collision-safe ``name(k=v, ...)`` encoding for cell labels.

    Values are rendered with ``repr`` so strings containing the label's
    structural characters (``,``, ``=``, ``|``) stay quoted and two
    distinct kwargs dicts can never produce the same encoding — e.g.
    ``{"a": "1,b=2"}`` renders as ``a='1,b=2'``, distinguishable from
    ``{"a": 1, "b": 2}`` → ``a=1,b=2``.
    """
    if not kwargs:
        return name
    inner = ",".join(f"{k}={v!r}" for k, v in sorted(kwargs.items()))
    return f"{name}({inner})"


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-resolved cell of a scenario grid.

    Carries everything needed to build the cell's simulation: the
    workload (registry name + kwargs), the cast (n workers, f Byzantine,
    slot placement), the learning-rate schedule knobs, and the registry
    names + kwargs of the choice function and the attack.  ``attack`` is
    ``None`` for attack-free (f = 0) cells.

    The ``dimension``/``sigma``/``curvature`` fields are a deprecation
    shim for the pre-workload API: when given they configure the
    ``quadratic`` workload, and for quadratic cells they read back as
    the resolved knob values.
    """

    seed: int
    aggregator: str
    aggregator_kwargs: dict = field(default_factory=dict)
    attack: str | None = None
    attack_kwargs: dict = field(default_factory=dict)
    num_workers: int = 20
    num_byzantine: int = 0
    workload: str = "quadratic"
    workload_kwargs: dict = field(default_factory=dict)
    dimension: int | None = None
    sigma: float | None = None
    curvature: float | None = None
    learning_rate: float = 0.1
    lr_timescale: float | None = 100.0
    byzantine_slots: str = "last"
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
        resolved = _resolve_quadratic_shim(
            "ScenarioSpec",
            self.workload,
            self.workload_kwargs,
            {name: getattr(self, name) for name in _QUADRATIC_SHIM_FIELDS},
        )
        object.__setattr__(self, "workload_kwargs", resolved)
        if self.workload == "quadratic":
            for name in _QUADRATIC_SHIM_FIELDS:
                object.__setattr__(self, name, resolved[name])
        if self.num_byzantine > 0 and self.attack is None:
            raise ConfigurationError(
                f"num_byzantine={self.num_byzantine} requires an attack"
            )
        if self.num_byzantine == 0 and self.attack is not None:
            raise ConfigurationError(
                "an attack was supplied but num_byzantine=0"
            )
        # Every (name, kwargs) pair is validated at declaration time;
        # the None arms reject kwargs given without a name.
        AGGREGATORS.check(self.aggregator, self.aggregator_kwargs)
        ATTACKS.check_optional(self.attack, self.attack_kwargs)
        if self.max_staleness < 0:
            raise ConfigurationError(
                f"max_staleness must be >= 0, got {self.max_staleness}"
            )
        make_delay_schedule(self.delay_schedule, self.delay_kwargs)
        # Server-tier knobs: same pairing discipline as the worker-side
        # num_byzantine/attack pair, validated at declaration time.
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
                f"byzantine_servers={self.byzantine_servers} requires a "
                f"server_attack"
            )
        if self.byzantine_servers == 0 and self.server_attack is not None:
            raise ConfigurationError(
                "a server_attack was supplied but byzantine_servers=0"
            )
        make_server_attack(self.server_attack, self.server_attack_kwargs)
        # Topology: unknown names and knobs the named graph family does
        # not take both fail here, at declaration time.
        for knob in _TOPOLOGY_KNOBS:
            if getattr(self, knob) is not None and not TOPOLOGIES.accepts(
                self.topology, knob
            ):
                raise ConfigurationError(
                    f"topology {self.topology!r} does not take a "
                    f"{knob} parameter"
                )
        make_topology(self.topology, self.topology_kwargs)
        if self.is_gossip:
            if self.max_staleness != 0:
                raise ConfigurationError(
                    "gossip cells model lag per edge via delay_schedule; "
                    f"max_staleness={self.max_staleness} is a server-side "
                    f"knob and must stay 0"
                )
            if (
                self.num_servers != 1
                or self.byzantine_servers != 0
                or self.num_shards != 1
                or self.server_attack is not None
            ):
                raise ConfigurationError(
                    "the replicated/sharded server tier and gossip "
                    "topologies are mutually exclusive — a decentralized "
                    "cell has no server to replicate"
                )

    def __hash__(self) -> int:
        # The generated frozen-dataclass hash would raise on the kwargs
        # dicts; hash the label (which encodes workload, attack, rule
        # and delay kwargs) plus the remaining scalars instead.  Equal
        # specs have equal labels, so the eq/hash contract holds — treat
        # the kwargs dicts as read-only.
        return hash(
            (self.label, self.learning_rate, self.lr_timescale,
             self.byzantine_slots, self.halt_on_nonfinite)
        )

    @property
    def workload_label(self) -> str:
        """The label segment identifying this cell's workload.

        Quadratic kwargs equal to their defaults are omitted so the
        default workload reads as plain ``quadratic`` (omission is
        value-determined per key, so the encoding stays collision-safe).
        """
        kwargs = self.workload_kwargs
        if self.workload == "quadratic":
            kwargs = {
                k: v
                for k, v in kwargs.items()
                if QUADRATIC_DEFAULTS.get(k, object()) != v
            }
        return _encode_kwargs(self.workload, kwargs)

    @property
    def async_label(self) -> str | None:
        """The label segment identifying this cell's asynchrony, or
        ``None`` for the (default) synchronous cell — so synchronous
        labels are exactly what they were before the async axes existed.
        """
        if self.max_staleness == 0 and self.delay_schedule is None:
            return None
        delay = (
            _encode_kwargs(self.delay_schedule, self.delay_kwargs)
            if self.delay_schedule is not None
            else "no-delay"
        )
        return f"stale<={self.max_staleness}|{delay}"

    @property
    def server_label(self) -> str | None:
        """The label segment identifying this cell's server tier, or
        ``None`` for the (default) single reliable server — so
        pre-tier labels are exactly what they were before the server
        axes existed.
        """
        if (
            self.num_servers == 1
            and self.byzantine_servers == 0
            and self.num_shards == 1
        ):
            return None
        attack = (
            _encode_kwargs(self.server_attack, self.server_attack_kwargs)
            if self.server_attack is not None
            else "no-server-attack"
        )
        return (
            f"servers={self.num_servers}/byz={self.byzantine_servers}"
            f"/shards={self.num_shards}|{attack}"
        )

    @property
    def is_gossip(self) -> bool:
        """Whether this cell runs the serverless gossip engine.

        The ``"complete"`` default routes through the server path — on
        the complete graph with fresh edges the two engines produce the
        same trajectory bit for bit, so the server path *is* the
        degenerate cell and pre-topology grids are untouched.
        """
        return self.topology != "complete"

    @property
    def topology_kwargs(self) -> dict:
        """The non-None topology knobs as factory kwargs."""
        return {
            knob: getattr(self, knob)
            for knob in _TOPOLOGY_KNOBS
            if getattr(self, knob) is not None
        }

    @property
    def topology_label(self) -> str | None:
        """The label segment identifying this cell's communication
        graph, or ``None`` for the (default) complete graph — so
        pre-topology labels are exactly what they were before the
        topology axes existed."""
        if not self.is_gossip:
            return None
        return "topo=" + _encode_kwargs(self.topology, self.topology_kwargs)

    @property
    def label(self) -> str:
        """Unique human-readable cell identifier used in result dicts.

        Encodes the workload, the kwargs of the rule and the attack,
        for asynchronous cells the staleness bound and delay schedule,
        for server-tier cells the replica/shard topology and server
        attack, and for gossip cells the communication graph
        (collision-safely — see :func:`_encode_kwargs`) so grids can
        sweep workload, rule, attack, delay, server *and* topology
        parameters without label collisions.
        """
        agg = _encode_kwargs(self.aggregator, self.aggregator_kwargs)
        attack = (
            _encode_kwargs(self.attack, self.attack_kwargs)
            if self.attack is not None
            else "no-attack"
        )
        base = (
            f"seed={self.seed}|{self.workload_label}|{attack}|{agg}"
            f"|f={self.num_byzantine}"
        )
        for suffix in (
            self.async_label,
            self.server_label,
            self.topology_label,
        ):
            if suffix is not None:
                base = f"{base}|{suffix}"
        return base


@dataclass(frozen=True)
class ScenarioGrid:
    """Cartesian product of seeds × workloads × attacks × aggregators × f.

    ``aggregators``, ``attacks`` and ``workloads`` are sequences of
    ``(registry_name, kwargs)`` pairs; ``f_values`` the Byzantine counts
    to sweep.  The workload axis defaults to one entry — the singular
    ``workload``/``workload_kwargs`` pair, which itself defaults to the
    paper's analytic quadratic setting.  Mixed-dimension grids are fine:
    the batched executor groups cells by parameter dimension.

    Asynchrony is two more axes: ``max_staleness_values`` sweeps the
    server's bounded-staleness window and ``delay_schedules`` the
    per-worker delay model (``(registry_name, kwargs)`` pairs from
    :mod:`repro.distributed.delays`; an entry of ``(None, {})`` is the
    synchronous arm).  Both default to one entry — the singular
    ``max_staleness``/``delay_schedule``+``delay_kwargs`` knobs, which
    themselves default to the synchronous model, keeping pre-async grids
    (and their cell labels) unchanged.

    The server tier adds four more, resolved the same way:
    ``num_servers_values`` (replica counts), ``byzantine_servers_values``
    (corrupted-replica counts; every combination must satisfy
    ``byzantine_servers <= num_servers``, checked at declaration),
    ``num_shards_values`` (per-shard aggregation) and ``server_attacks``
    (``(registry_name, kwargs)`` pairs from
    :mod:`repro.servers.registry`).  ``byzantine_servers = 0`` collapses
    the server-attack axis to one attack-free entry, exactly as ``f = 0``
    collapses the worker-attack axis, and the all-default singular knobs
    keep pre-tier grids (and their cell labels) unchanged.

    Decentralized cells add ``topology(_values)`` plus the graph knobs
    ``degree(_values)`` / ``edge_prob`` / ``rewire_period`` from the
    topology registry.  The ``"complete"`` default runs on the server
    path (bit-identical to the gossip engine's complete-graph cell —
    the degenerate-identity guarantee), non-complete topologies run the
    serverless :class:`~repro.topology.GossipSimulation`, and the
    degree axis expands only under graph families that take a degree,
    collapsing elsewhere so no duplicate labels arise.

    Example::

        grid = ScenarioGrid(
            seeds=(0, 1), num_rounds=50, num_workers=15,
            workloads=(
                ("quadratic", {"dimension": 100}),
                ("logistic-spambase", {"num_train": 256}),
            ),
            attacks=(("gaussian", {"sigma": 200.0}),),
            aggregators=(("krum", {}), ("average", {})),
            f_values=(0, 3),
        )
        grid.scenarios()   # the resolved ScenarioSpec cells
    """

    seeds: Sequence[int] = (0,)
    attacks: Sequence[tuple[str, Mapping]] = ()
    aggregators: Sequence[tuple[str, Mapping]] = (("krum", {}),)
    f_values: Sequence[int] = (0,)
    num_workers: int = 20
    num_rounds: int = 50
    workload: str = "quadratic"
    workload_kwargs: Mapping = field(default_factory=dict)
    workloads: Sequence[tuple[str, Mapping]] | None = None
    dimension: int | None = None
    sigma: float | None = None
    curvature: float | None = None
    learning_rate: float = 0.1
    lr_timescale: float | None = 100.0
    byzantine_slots: str = "last"
    max_staleness: int = 0
    max_staleness_values: Sequence[int] | None = None
    delay_schedule: str | None = None
    delay_kwargs: Mapping = field(default_factory=dict)
    delay_schedules: Sequence[tuple[str | None, Mapping]] | None = None
    num_servers: int = 1
    num_servers_values: Sequence[int] | None = None
    byzantine_servers: int = 0
    byzantine_servers_values: Sequence[int] | None = None
    num_shards: int = 1
    num_shards_values: Sequence[int] | None = None
    server_attack: str | None = None
    server_attack_kwargs: Mapping = field(default_factory=dict)
    server_attacks: Sequence[tuple[str, Mapping]] | None = None
    halt_on_nonfinite: bool = False
    topology: str = "complete"
    topology_values: Sequence[str] | None = None
    degree: int | None = None
    degree_values: Sequence[int] | None = None
    edge_prob: float | None = None
    rewire_period: int | None = None

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ConfigurationError("grid needs at least one seed")
        if not self.aggregators:
            raise ConfigurationError("grid needs at least one aggregator spec")
        if not self.f_values:
            raise ConfigurationError("grid needs at least one f value")
        if self.num_workers < 1:
            raise ConfigurationError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        if self.num_rounds < 1:
            raise ConfigurationError(
                f"num_rounds must be >= 1, got {self.num_rounds}"
            )
        for f in self.f_values:
            if not 0 <= f < self.num_workers:
                raise ConfigurationError(
                    f"need 0 <= f < n for every f value, got f={f}, "
                    f"n={self.num_workers}"
                )
        if any(f > 0 for f in self.f_values) and not self.attacks:
            raise ConfigurationError(
                "grid sweeps f > 0 but declares no attacks"
            )
        # Validate each rule and attack spec once, at declaration time
        # (the cell's f reaches every rule whose factory takes one).
        for name, kwargs in self.aggregators:
            AGGREGATORS.check(
                name, self._aggregator_kwargs(name, kwargs, self.f_values[0])
            )
        for name, kwargs in self.attacks:
            ATTACKS.check(name, kwargs)
        # Resolve the workload axis once.  The deprecated scalar knobs
        # apply to the singular quadratic pair only; combining them (or
        # the singular pair) with an explicit `workloads` axis would be
        # ambiguous.
        if self.workloads is not None:
            if self.workload != "quadratic" or self.workload_kwargs:
                raise ConfigurationError(
                    "pass either workload/workload_kwargs or a workloads "
                    "axis, not both"
                )
            if any(
                getattr(self, name) is not None
                for name in _QUADRATIC_SHIM_FIELDS
            ):
                raise ConfigurationError(
                    "deprecated quadratic knobs (dimension/sigma/curvature) "
                    "cannot be combined with a workloads axis; put them in "
                    "the quadratic entry's kwargs"
                )
            if not self.workloads:
                raise ConfigurationError(
                    "grid needs at least one workload spec"
                )
            axis = tuple(
                (name, dict(kwargs)) for name, kwargs in self.workloads
            )
        else:
            resolved = _resolve_quadratic_shim(
                "ScenarioGrid",
                self.workload,
                self.workload_kwargs,
                {
                    name: getattr(self, name)
                    for name in _QUADRATIC_SHIM_FIELDS
                },
            )
            object.__setattr__(self, "workload_kwargs", resolved)
            if self.workload == "quadratic":
                for name in _QUADRATIC_SHIM_FIELDS:
                    object.__setattr__(self, name, resolved[name])
            axis = ((self.workload, dict(resolved)),)
        object.__setattr__(self, "workloads", axis)
        # Eagerly validate every workload spec (cheap — workloads
        # materialize datasets lazily), so a typo'd name or a bad knob
        # (e.g. dimension=0) fails at declaration time, as the
        # pre-workload scalar fields did.
        for name, kwargs in axis:
            make_workload(name, kwargs)
        # Resolve the asynchrony axes the same way the workload axis
        # resolves: plural sweeps exclude the singular knobs.
        if self.max_staleness_values is not None:
            if self.max_staleness != 0:
                raise ConfigurationError(
                    "pass either max_staleness or a max_staleness_values "
                    "axis, not both"
                )
            if not self.max_staleness_values:
                raise ConfigurationError(
                    "grid needs at least one max_staleness value"
                )
            staleness_axis = tuple(int(s) for s in self.max_staleness_values)
        else:
            staleness_axis = (int(self.max_staleness),)
        for bound in staleness_axis:
            if bound < 0:
                raise ConfigurationError(
                    f"max_staleness values must be >= 0, got {bound}"
                )
        object.__setattr__(self, "max_staleness_values", staleness_axis)
        if self.delay_schedules is not None:
            if self.delay_schedule is not None or self.delay_kwargs:
                raise ConfigurationError(
                    "pass either delay_schedule/delay_kwargs or a "
                    "delay_schedules axis, not both"
                )
            if not self.delay_schedules:
                raise ConfigurationError(
                    "grid needs at least one delay schedule spec"
                )
            delay_axis = tuple(
                (name, dict(kwargs)) for name, kwargs in self.delay_schedules
            )
        else:
            delay_axis = ((self.delay_schedule, dict(self.delay_kwargs)),)
        for name, kwargs in delay_axis:
            make_delay_schedule(name, kwargs)
        object.__setattr__(self, "delay_schedules", delay_axis)
        # Resolve the server-tier axes: plural sweeps exclude the
        # singular knobs, mirroring the asynchrony axes above.
        servers_axis = self._scalar_axis(
            "num_servers", default=1, minimum=1
        )
        byzantine_axis = self._scalar_axis(
            "byzantine_servers", default=0, minimum=0
        )
        shards_axis = self._scalar_axis("num_shards", default=1, minimum=1)
        # Every (num_servers, byzantine_servers) combination the product
        # will emit must be a valid cell, so the cheapest-to-satisfy
        # bound governs: checked eagerly to keep ``len(grid)`` exact.
        for b in byzantine_axis:
            if b > min(servers_axis):
                raise ConfigurationError(
                    f"byzantine_servers={b} exceeds num_servers="
                    f"{min(servers_axis)}; every swept combination must "
                    f"satisfy byzantine_servers <= num_servers"
                )
        if self.server_attacks is not None:
            if self.server_attack is not None or self.server_attack_kwargs:
                raise ConfigurationError(
                    "pass either server_attack/server_attack_kwargs or a "
                    "server_attacks axis, not both"
                )
            if not self.server_attacks:
                raise ConfigurationError(
                    "grid needs at least one server attack spec"
                )
            server_attack_axis = tuple(
                (name, dict(kwargs)) for name, kwargs in self.server_attacks
            )
        elif self.server_attack is not None:
            server_attack_axis = (
                (self.server_attack, dict(self.server_attack_kwargs)),
            )
        else:
            SERVER_ATTACKS.check_optional(None, self.server_attack_kwargs)
            server_attack_axis = ()
        for name, kwargs in server_attack_axis:
            make_server_attack(name, kwargs)
        if any(b > 0 for b in byzantine_axis) and not server_attack_axis:
            raise ConfigurationError(
                "grid sweeps byzantine_servers > 0 but declares no "
                "server attacks"
            )
        object.__setattr__(self, "num_servers_values", servers_axis)
        object.__setattr__(self, "byzantine_servers_values", byzantine_axis)
        object.__setattr__(self, "num_shards_values", shards_axis)
        object.__setattr__(self, "server_attacks", server_attack_axis)
        # Resolve the topology axes: plural sweeps exclude the singular
        # knobs, mirroring every axis above.
        if self.topology_values is not None:
            if self.topology != "complete":
                raise ConfigurationError(
                    "pass either topology or a topology_values axis, "
                    "not both"
                )
            if not self.topology_values:
                raise ConfigurationError(
                    "grid needs at least one topology name"
                )
            topology_axis = tuple(str(t) for t in self.topology_values)
        else:
            topology_axis = (str(self.topology),)
        object.__setattr__(self, "topology_values", topology_axis)
        if self.degree_values is not None:
            if self.degree is not None:
                raise ConfigurationError(
                    "pass either degree or a degree_values axis, not both"
                )
            if not self.degree_values:
                raise ConfigurationError(
                    "grid needs at least one degree value"
                )
            degree_axis: tuple[int | None, ...] = tuple(
                int(d) for d in self.degree_values
            )
        else:
            degree_axis = (
                None if self.degree is None else int(self.degree),
            )
        object.__setattr__(self, "degree_values", degree_axis)
        # Each supplied knob must land somewhere: a degree (edge_prob,
        # rewire_period) that no swept topology accepts is a typo, not a
        # silently dropped axis.
        for knob, supplied in (
            ("degree", any(d is not None for d in degree_axis)),
            ("edge_prob", self.edge_prob is not None),
            ("rewire_period", self.rewire_period is not None),
        ):
            if supplied and not any(
                TOPOLOGIES.accepts(name, knob) for name in topology_axis
            ):
                raise ConfigurationError(
                    f"{knob} was given but no swept topology "
                    f"({list(topology_axis)}) takes a {knob} parameter"
                )
        # Eagerly validate every topology cell (builds the unbound
        # graph), and forbid combining gossip cells with the server-side
        # axes — the ScenarioSpec constraint, surfaced at grid
        # declaration so ``len(grid)`` stays exact.
        topology_cells = tuple(self._topology_cells())
        for name, kwargs in topology_cells:
            make_topology(name, kwargs)
        if any(name != "complete" for name, _ in topology_cells):
            if any(s != 0 for s in staleness_axis):
                raise ConfigurationError(
                    "gossip cells model lag per edge via the delay axis; "
                    "a max_staleness sweep is a server-side knob and "
                    "cannot be combined with non-complete topologies"
                )
            if (
                servers_axis != (1,)
                or byzantine_axis != (0,)
                or shards_axis != (1,)
                or server_attack_axis
            ):
                raise ConfigurationError(
                    "the replicated/sharded server tier and gossip "
                    "topologies are mutually exclusive — a decentralized "
                    "cell has no server to replicate"
                )

    def _scalar_axis(
        self, name: str, *, default: int, minimum: int
    ) -> tuple[int, ...]:
        """Resolve a singular-knob / plural-axis pair of integer fields
        (``name`` and ``name + "_values"``) into the swept tuple."""
        plural = f"{name}_values"
        values = getattr(self, plural)
        singular = getattr(self, name)
        if values is not None:
            if singular != default:
                raise ConfigurationError(
                    f"pass either {name} or a {plural} axis, not both"
                )
            if not values:
                raise ConfigurationError(
                    f"grid needs at least one {name} value"
                )
            axis = tuple(int(v) for v in values)
        else:
            axis = (int(singular),)
        for value in axis:
            if value < minimum:
                raise ConfigurationError(
                    f"{name} values must be >= {minimum}, got {value}"
                )
        return axis

    def _topology_cells(self) -> list[tuple[str, dict]]:
        """The resolved topology axis: one ``(name, kwargs)`` cell per
        swept graph.

        ``edge_prob``/``rewire_period`` are forwarded to the factories
        that take them; the degree axis expands only under topologies
        with a ``degree`` parameter (ring, k-regular) and collapses to
        one cell elsewhere, exactly as ``f = 0`` collapses the attack
        axis — no duplicate labels.  A ``None`` degree entry defers to
        the factory's default.
        """
        cells: list[tuple[str, dict]] = []
        for name in self.topology_values:
            base: dict = {}
            for knob in ("edge_prob", "rewire_period"):
                value = getattr(self, knob)
                if value is not None and TOPOLOGIES.accepts(name, knob):
                    base[knob] = value
            if TOPOLOGIES.accepts(name, "degree"):
                for degree in self.degree_values:
                    kwargs = dict(base)
                    if degree is not None:
                        kwargs["degree"] = int(degree)
                    cells.append((name, kwargs))
            else:
                cells.append((name, base))
        return cells

    def _aggregator_kwargs(self, name: str, kwargs: Mapping, f: int) -> dict:
        """Resolve a rule's kwargs for a cell, injecting the cell's f
        where the rule's factory accepts it."""
        resolved = dict(kwargs)
        if "f" not in resolved and AGGREGATORS.accepts(name, "f"):
            resolved["f"] = f
        return resolved

    def scenarios(self) -> list[ScenarioSpec]:
        """Expand the grid into its concrete cells.

        For ``f = 0`` the attack axis collapses (there is no Byzantine
        slot to feed), so each (seed, workload, aggregator) triple
        contributes one attack-free cell instead of one per attack.
        """
        cells: list[ScenarioSpec] = []
        attack_specs: Iterable[tuple[str, Mapping] | None]
        server_specs: Iterable[tuple[str, Mapping] | None]
        outer = product(
            self.seeds,
            self.workloads,
            self.max_staleness_values,
            self.delay_schedules,
            self.num_servers_values,
            self.byzantine_servers_values,
            self.num_shards_values,
            tuple(self._topology_cells()),
        )
        for seed, (workload_name, workload_kwargs), max_staleness, (
            delay_name,
            delay_kwargs,
        ), num_servers, byzantine_servers, num_shards, (
            topology_name,
            topology_kwargs,
        ) in outer:
            server_specs = (
                self.server_attacks if byzantine_servers > 0 else (None,)
            )
            for server_spec in server_specs:
                server_name = None
                server_kwargs: dict = {}
                if server_spec is not None:
                    server_name, raw = server_spec
                    server_kwargs = dict(raw)
                for f in self.f_values:
                    attack_specs = self.attacks if f > 0 else (None,)
                    for attack_spec in attack_specs:
                        for agg_name, agg_kwargs in self.aggregators:
                            attack_name = None
                            attack_kwargs: dict = {}
                            if attack_spec is not None:
                                attack_name, raw = attack_spec
                                attack_kwargs = dict(raw)
                            cells.append(
                                ScenarioSpec(
                                    seed=int(seed),
                                    aggregator=agg_name,
                                    aggregator_kwargs=self._aggregator_kwargs(
                                        agg_name, agg_kwargs, f
                                    ),
                                    attack=attack_name,
                                    attack_kwargs=attack_kwargs,
                                    num_workers=self.num_workers,
                                    num_byzantine=int(f),
                                    workload=workload_name,
                                    workload_kwargs=dict(workload_kwargs),
                                    learning_rate=self.learning_rate,
                                    lr_timescale=self.lr_timescale,
                                    byzantine_slots=self.byzantine_slots,
                                    max_staleness=int(max_staleness),
                                    delay_schedule=delay_name,
                                    delay_kwargs=dict(delay_kwargs),
                                    num_servers=int(num_servers),
                                    byzantine_servers=int(byzantine_servers),
                                    num_shards=int(num_shards),
                                    server_attack=server_name,
                                    server_attack_kwargs=server_kwargs,
                                    halt_on_nonfinite=self.halt_on_nonfinite,
                                    topology=topology_name,
                                    degree=topology_kwargs.get("degree"),
                                    edge_prob=topology_kwargs.get(
                                        "edge_prob"
                                    ),
                                    rewire_period=topology_kwargs.get(
                                        "rewire_period"
                                    ),
                                )
                            )
        return cells

    def __len__(self) -> int:
        f_zero = sum(1 for f in self.f_values if f == 0)
        f_pos = len(self.f_values) - f_zero
        per_workload = len(self.aggregators) * (
            f_zero + f_pos * len(self.attacks)
        )
        b_zero = sum(1 for b in self.byzantine_servers_values if b == 0)
        b_pos = len(self.byzantine_servers_values) - b_zero
        server_cells = (
            len(self.num_servers_values)
            * len(self.num_shards_values)
            * (b_zero + b_pos * len(self.server_attacks))
        )
        return (
            len(self.seeds)
            * len(self.workloads)
            * len(self.max_staleness_values)
            * len(self.delay_schedules)
            * server_cells
            * len(self._topology_cells())
            * per_workload
        )

    def validate(self) -> None:
        """Eagerly resolve every registry reference the grid names,
        surfacing bad workload/aggregator names, bad kwargs or (n, f)
        precondition violations before a long run.

        Deduplicated: each distinct workload spec and each distinct
        ``(rule, kwargs, n)`` combination is built exactly once, so
        validating a large grid costs O(distinct specs), not O(cells).
        """
        for name, kwargs in self.workloads:
            make_workload(name, kwargs)
        for name, kwargs in self.delay_schedules:
            make_delay_schedule(name, kwargs)
        for name, kwargs in self.server_attacks:
            make_server_attack(name, kwargs)
        for name, kwargs in self._topology_cells():
            make_topology(name, kwargs)
        checked: set[tuple] = set()
        for spec in self.scenarios():
            key = (
                spec.aggregator,
                tuple(sorted(
                    (k, repr(v)) for k, v in spec.aggregator_kwargs.items()
                )),
                spec.num_workers,
            )
            if key in checked:
                continue
            checked.add(key)
            rule = make_aggregator(spec.aggregator, **spec.aggregator_kwargs)
            rule.check_tolerance(spec.num_workers)

    def workload_specs(self) -> tuple[tuple[str, dict], ...]:
        """The resolved workload axis: ``(name, kwargs)`` per entry."""
        return tuple((name, dict(kwargs)) for name, kwargs in self.workloads)

    def distinct_workloads(self) -> list[tuple[str, dict]]:
        """The workload axis with duplicate specs removed (keyed by
        :func:`~repro.engine.workloads.workload_key`)."""
        seen: set[tuple] = set()
        out: list[tuple[str, dict]] = []
        for name, kwargs in self.workloads:
            key = workload_key(name, kwargs)
            if key not in seen:
                seen.add(key)
                out.append((name, dict(kwargs)))
        return out
