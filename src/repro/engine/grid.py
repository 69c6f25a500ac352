"""Declarative scenario grids — the cartesian experiment spec.

The paper's figures are grids: seeds × workloads × attacks ×
aggregators × f.  :class:`ScenarioGrid` declares such a grid once and
builds its concrete :class:`ScenarioSpec` cells right then; the engine
materializes and runs them — either one-by-one through
:class:`~repro.distributed.TrainingSimulation` (the loop executor) or
stacked into ``(B, n, d)`` tensors by
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
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from itertools import product

from repro.attacks.registry import ATTACKS
from repro.core.registry import AGGREGATORS, make_aggregator
from repro.distributed.delays import make_delay_schedule
from repro.engine.workloads import QUADRATIC_DEFAULTS, make_workload
from repro.exceptions import ConfigurationError
from repro.servers.registry import make_server_attack
from repro.topology.registry import TOPOLOGIES, make_topology
from repro.utils.validation import check_positive_int

__all__ = ["ScenarioSpec", "ScenarioGrid"]

# Spec/grid fields forwarded as topology factory kwargs when non-None.
_TOPOLOGY_KNOBS = ("degree", "edge_prob", "rewire_period")

# Spec fields that hold a count or an index: a bool or a float there is
# a typo, never a value to truncate.  The topology knobs may be None.
_INTEGER_KNOBS = (
    "seed",
    "num_workers",
    "num_byzantine",
    "max_staleness",
    "num_servers",
    "byzantine_servers",
    "num_shards",
    "degree",
    "rewire_period",
)


def _with_quadratic_defaults(workload: str, workload_kwargs: Mapping) -> dict:
    """Copy ``workload_kwargs``, completing a quadratic workload's knobs
    from :data:`QUADRATIC_DEFAULTS`, so equal configurations compare
    equal however many defaults they spell out."""
    resolved = dict(workload_kwargs)
    if workload == "quadratic":
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
        for knob in _INTEGER_KNOBS:
            value = getattr(self, knob)
            if value is None and knob in _TOPOLOGY_KNOBS:
                continue
            if isinstance(value, bool) or not isinstance(
                value, numbers.Integral
            ):
                raise ConfigurationError(
                    f"{knob} must be an integer, got {value!r}"
                )
            # NumPy integers become plain ints, so labels read the same.
            object.__setattr__(self, knob, int(value))
        # A spec owns its kwargs dicts: its label and hash read them.
        for knob in (
            "aggregator_kwargs",
            "attack_kwargs",
            "delay_kwargs",
            "server_attack_kwargs",
        ):
            object.__setattr__(self, knob, dict(getattr(self, knob)))
        object.__setattr__(
            self,
            "workload_kwargs",
            _with_quadratic_defaults(self.workload, self.workload_kwargs),
        )
        if not 0 <= self.num_byzantine < self.num_workers:
            raise ConfigurationError(
                f"need 0 <= num_byzantine < num_workers, got "
                f"num_byzantine={self.num_byzantine} with "
                f"num_workers={self.num_workers}"
            )
        if self.num_byzantine > 0 and self.attack is None:
            raise ConfigurationError(
                f"num_byzantine={self.num_byzantine} requires an attack"
            )
        if self.num_byzantine == 0 and self.attack is not None:
            raise ConfigurationError(
                "an attack was supplied but num_byzantine=0"
            )
        # Every (name, kwargs) pair is validated at declaration time;
        # the None arms reject kwargs given without a name.  The attack
        # is built, so its constructor's value checks run here too.
        AGGREGATORS.check(self.aggregator, self.aggregator_kwargs)
        ATTACKS.make_optional(self.attack, self.attack_kwargs)
        # lr_timescale may be None: a constant schedule.
        for knob in ("learning_rate", "lr_timescale"):
            value = getattr(self, knob)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ConfigurationError(
                    f"{knob} must be positive and finite, got {value}"
                )
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


# The nine singular/plural knob pairs, as ``(knob, axis field, kwargs
# field)``.  The kwargs field is None for a scalar axis and names the
# singular kwargs of a ``(name, kwargs)`` axis.  A singular value is a
# one-element axis, so both spellings declare the same cells.
_AXES = (
    ("workload", "workloads", "workload_kwargs"),
    ("max_staleness", "max_staleness_values", None),
    ("delay_schedule", "delay_schedules", "delay_kwargs"),
    ("num_servers", "num_servers_values", None),
    ("byzantine_servers", "byzantine_servers_values", None),
    ("num_shards", "num_shards_values", None),
    ("server_attack", "server_attacks", "server_attack_kwargs"),
    ("topology", "topology_values", None),
    ("degree", "degree_values", None),
)


@dataclass(frozen=True)
class ScenarioGrid:
    """Cartesian product of seeds × workloads × attacks × aggregators × f.

    ``aggregators``, ``attacks`` and ``workloads`` are sequences of
    ``(registry_name, kwargs)`` pairs; ``f_values`` the Byzantine counts
    to sweep.  Mixed-dimension grids are fine: the batched executor
    groups cells by parameter dimension.

    Nine knobs have a singular and a plural spelling, as the module's
    ``_AXES`` table lists them: ``workload``/``workload_kwargs`` or
    ``workloads``, ``max_staleness`` or ``max_staleness_values``, and so
    on.  A singular value is a one-element axis; giving both spellings,
    or an empty axis, is an error.  The singular defaults are the
    paper's synchronous quadratic cell on one reliable server and the
    complete graph, so grids that leave a knob alone keep the labels
    they had before that knob existed.

    The delay axis takes :mod:`repro.distributed.delays` specs (an entry
    of ``(None, {})`` is the synchronous arm), the server-attack axis
    :mod:`repro.servers.registry` specs and the topology axis names from
    :mod:`repro.topology.registry`; ``edge_prob`` and ``rewire_period``
    reach the graph families that take them.  The ``"complete"`` default
    runs on the server path (bit-identical to the gossip engine's
    complete-graph cell), every other topology on the serverless
    :class:`~repro.topology.GossipSimulation`.

    Three collapses keep cells distinct: an ``f = 0`` cell carries no
    attack, a ``byzantine_servers = 0`` cell no server attack, and the
    degree axis expands only under topologies that take a degree.

    Every cell is built and validated once, at declaration:
    :class:`ScenarioSpec` checks each cell (integer knobs, registry
    names and kwargs, the server-tier and gossip constraints), and the
    grid adds what no single cell sees — non-empty axes, ``0 <= f < n``,
    attacks for ``f > 0``, every supplied knob landing in some cell, and
    unique labels.

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
        grid.scenarios()   # the ScenarioSpec cells
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
        for knob in ("num_workers", "num_rounds"):
            check_positive_int(getattr(self, knob), knob)
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
        # Attack specs are built even where f = 0 leaves no cell to
        # carry them.
        for name, kwargs in self.attacks:
            ATTACKS.make(name, kwargs)
        axes = self._resolve_axes()
        # One workload per axis entry (cheap: datasets materialize
        # lazily), so a typo'd name or a bad knob fails here.  No cell
        # can check this: a ScenarioSpec may name an unregistered
        # workload that its caller builds itself.
        for entry in axes["workload"]:
            make_workload(entry["workload"], entry["workload_kwargs"])
        cells = self._expand(axes)
        # Each supplied knob must land in some cell: a knob that every
        # cell drops is a typo, not a silently empty axis.
        given = {
            "degree": any(e["degree"] is not None for e in axes["degree"]),
            "edge_prob": self.edge_prob is not None,
            "rewire_period": self.rewire_period is not None,
            "server_attack": any(
                e["server_attack"] or e["server_attack_kwargs"]
                for e in axes["server_attack"]
            ),
        }
        for knob, supplied in given.items():
            if supplied and all(getattr(c, knob) is None for c in cells):
                taker = (
                    "cell has byzantine_servers > 0"
                    if knob == "server_attack"
                    else f"topology takes a {knob} parameter"
                )
                raise ConfigurationError(
                    f"{knob} was given but no swept {taker}"
                )
        counts = Counter(cell.label for cell in cells)
        duplicates = [label for label, count in counts.items() if count > 1]
        if duplicates:
            raise ConfigurationError(
                f"grid declares {len(duplicates)} duplicate cell label(s), "
                f"e.g. {duplicates[0]!r}; make the seeds and the workload, "
                f"aggregator, attack and topology entries distinct"
            )
        object.__setattr__(self, "_cells", tuple(cells))

    def _resolve_axes(self) -> dict[str, tuple[dict, ...]]:
        """Each knob pair of :data:`_AXES` as its swept tuple, keyed by
        the singular knob.  An entry is the :class:`ScenarioSpec` fields
        it sets, e.g. ``{"workload": name, "workload_kwargs": kwargs}``."""
        axes: dict[str, tuple[dict, ...]] = {}
        for knob, plural, kwargs_knob in _AXES:
            singular = getattr(self, knob)
            kwargs = getattr(self, kwargs_knob) if kwargs_knob else None
            values = getattr(self, plural)
            if values is None:
                values = ((singular, kwargs),) if kwargs_knob else (singular,)
            # A dataclass keeps each plain field default as a class
            # attribute: that is the singular knob's "not given" value.
            elif singular != getattr(ScenarioGrid, knob) or kwargs:
                pair = f"{knob}/{kwargs_knob}" if kwargs_knob else knob
                raise ConfigurationError(
                    f"pass either {pair} or a {plural} axis, not both"
                )
            elif not values:
                raise ConfigurationError(
                    f"grid needs at least one {knob} entry in {plural}"
                )
            if kwargs_knob:
                axes[knob] = tuple(
                    {knob: name, kwargs_knob: kw} for name, kw in values
                )
            else:
                axes[knob] = tuple({knob: value} for value in values)
        return axes

    def _expand(self, axes: dict[str, tuple[dict, ...]]) -> list[ScenarioSpec]:
        """The grid's cells in declaration order, from the resolved axes.

        ``f = 0`` collapses the attack axis and ``byzantine_servers = 0``
        the server-attack axis to one attack-free entry; the degree axis
        expands only under topologies with a ``degree`` parameter (a
        ``None`` entry defers to the factory's default), and
        ``edge_prob``/``rewire_period`` reach only the factories that
        take them.  ``f`` is injected into every rule whose factory
        takes one, unless the rule's kwargs pin it.
        """
        absent: tuple[dict, ...] = ({},)
        topologies = []
        for entry in axes["topology"]:
            name = entry["topology"]
            knobs = {
                knob: getattr(self, knob)
                for knob in ("edge_prob", "rewire_period")
                if getattr(self, knob) is not None
                and TOPOLOGIES.accepts(name, knob)
            }
            degrees = (
                axes["degree"] if TOPOLOGIES.accepts(name, "degree") else absent
            )
            topologies.extend({**entry, **knobs, **d} for d in degrees)
        attacks = tuple(
            {"attack": name, "attack_kwargs": kwargs}
            for name, kwargs in self.attacks
        )
        rules = [
            (name, kwargs, "f" not in kwargs and AGGREGATORS.accepts(name, "f"))
            for name, kwargs in self.aggregators
        ]
        shared = dict(
            num_workers=self.num_workers,
            learning_rate=self.learning_rate,
            lr_timescale=self.lr_timescale,
            byzantine_slots=self.byzantine_slots,
            halt_on_nonfinite=self.halt_on_nonfinite,
        )
        # Table order is the cells' nesting order; the three axes that
        # collapse or merge nest as described above.
        plain = [
            axes[knob]
            for knob, _, _ in _AXES
            if knob not in ("server_attack", "topology", "degree")
        ]
        cells: list[ScenarioSpec] = []
        for seed, *entries in product(self.seeds, *plain, topologies):
            base = dict(shared, seed=seed)
            for entry in entries:
                base.update(entry)
            servers = (
                axes["server_attack"] if base["byzantine_servers"] > 0 else absent
            )
            for server, f in product(servers, self.f_values):
                for attack, (rule, kwargs, takes_f) in product(
                    attacks if f > 0 else absent, rules
                ):
                    cells.append(
                        ScenarioSpec(
                            **base,
                            **server,
                            **attack,
                            num_byzantine=f,
                            aggregator=rule,
                            aggregator_kwargs=(
                                {**kwargs, "f": f} if takes_f else kwargs
                            ),
                        )
                    )
        return cells

    def scenarios(self) -> list[ScenarioSpec]:
        """The grid's cells, built and validated at declaration, as a
        new list."""
        return list(self._cells)

    def __len__(self) -> int:
        return len(self._cells)

    def validate(self) -> None:
        """Run every rule's (n, f) precondition before a long run.

        Declaration already checked every registry name and kwargs;
        this builds each distinct ``(rule, kwargs, n)`` combination once
        and calls its ``check_tolerance``, so validating a large grid
        costs O(distinct rules), not O(cells).
        """
        # _encode_kwargs is collision-safe, so it keys the combinations.
        checked: set[tuple[str, int]] = set()
        for spec in self._cells:
            rule = _encode_kwargs(spec.aggregator, spec.aggregator_kwargs)
            if (rule, spec.num_workers) not in checked:
                checked.add((rule, spec.num_workers))
                make_aggregator(
                    spec.aggregator, **spec.aggregator_kwargs
                ).check_tolerance(spec.num_workers)
