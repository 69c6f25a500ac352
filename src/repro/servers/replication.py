"""The replicated parameter-server group — Byzantine servers in the model.

:class:`ReplicatedServerGroup` turns the paper's single reliable server
into a server *tier* in the ByzSGD/Garfield mold:

* ``num_servers`` replicas hold the parameter state.  Honest replicas
  stay lock-step on one canonical vector ``x_t`` (they aggregate the
  same proposals with the same deterministic rule), so the canonical
  state is represented once — by the executor running the rounds.
* up to ``byzantine_servers`` replicas are Byzantine: each round they
  broadcast whatever their :class:`~repro.servers.attacks.ServerAttack`
  crafts instead of ``x_t``.  Corruption perturbs only what workers
  *receive* — the fault model is corrupted broadcasts, not divergent
  honest state.
* workers defend with a ByzSGD-style **coordinate-wise median** over the
  ``num_servers`` replica broadcasts before computing gradients.  The
  resulting *worker view* ``x̃_t`` (:meth:`corrupted_view`) is what
  fresh and stale workers read and what staleness-aware filters receive
  as used parameters; the executors keep its window.
* ``num_shards > 1`` additionally routes aggregation through
  :class:`~repro.servers.sharding.ShardedAggregator`: each shard
  aggregates only its coordinate slice of the proposal stack.

The degenerate configuration ``num_servers=1, byzantine_servers=0,
num_shards=1`` takes none of these paths: no view is computed, no RNG is
consumed, no wrapper is installed — the group *is* the single reliable
server bit for bit, the same guarantee discipline as ``max_staleness=0``
(``tests/servers/test_server_differential.py`` pins it).

With ``byzantine_servers = 0`` the view is exact for *any* replica
count: the coordinate median of ``num_servers`` identical honest rows is
the row itself (odd counts pick the middle element, even counts average
two equal values), so honest replication alone never forks a trajectory.
"""

from __future__ import annotations

import numpy as np

from repro.core.aggregator import Aggregator
from repro.distributed.schedules import LearningRateSchedule
from repro.exceptions import ConfigurationError, DimensionMismatchError
from repro.servers.attacks import ServerAttack, ServerAttackContext
from repro.servers.registry import make_server_attack
from repro.servers.sharding import ShardedAggregator, shard_bounds
from repro.utils.linalg import coordinate_median
from repro.utils.validation import check_positive_int

__all__ = ["ReplicatedServerGroup", "replica_view"]


def replica_view(broadcasts: np.ndarray) -> np.ndarray:
    """The worker-side defense: coordinate-wise median over replica
    broadcasts.

    ``broadcasts`` is ``(..., num_servers, d)`` — one row per replica,
    optionally behind leading cell axes (the executors stack the tier
    cells of one replica count).  The median is taken per coordinate
    over axis −2 (ByzSGD's worker-side aggregation), so a minority of
    corrupted rows cannot move any coordinate outside the honest range;
    each stacked cell's view equals its own one-cell call bit for bit.
    Permutation-invariant in replica order.  When all rows agree it
    returns the common row, except that a common −0.0 reads +0.0 (the
    median is a mean of order statistics, as in ``numpy.median``).
    Tiers of 2 to 7 replicas take
    :func:`~repro.utils.linalg.coordinate_median`'s selection network
    (3 replicas: 3 comparators over whole ``(cells, d)`` lines, no
    sorted copy of the block); larger tiers sort.
    """
    broadcasts = np.asarray(broadcasts, dtype=np.float64)
    if broadcasts.ndim < 2 or broadcasts.shape[-2] < 1:
        raise ConfigurationError(
            f"broadcasts must be (..., num_servers, d) with at least one "
            f"replica, got shape {broadcasts.shape}"
        )
    return coordinate_median(broadcasts, -2)


class ReplicatedServerGroup:
    """A parameter-server tier: replicas, Byzantine broadcasts, shards.

    Parameters
    ----------
    initial_params:
        The ``x_0`` vector; the group keeps its dimension (the executor
        running the rounds owns the parameter state).
    aggregator:
        The choice function F (wrapped per shard when ``num_shards > 1``).
    schedule:
        Learning-rate schedule γ_t.
    num_servers:
        Replica count (>= 1).
    byzantine_servers:
        How many replicas the adversary controls (the *last*
        ``byzantine_servers`` replica ids); requires ``server_attack``
        when positive.  ``byzantine_servers = num_servers`` is legal —
        it is the configuration the single-server headline measurement
        uses (one replica, fully corrupted).
    num_shards:
        Coordinate shards for per-shard aggregation; must not exceed the
        parameter dimension.  ``1`` keeps the plain rule.
    server_attack:
        A :class:`~repro.servers.attacks.ServerAttack` instance or
        registry name crafting the corrupted broadcasts.
    rng:
        The attack's dedicated RNG stream (required when
        ``byzantine_servers > 0``); simulations spawn it from the cell's
        root seed alongside the worker and worker-attack streams.
    halt_on_nonfinite:
        When true, a non-finite parameter vector after an update raises
        ``SimulationError`` instead of silently training on NaN — the
        operational guard a production server would run with.  Off by
        default so divergence experiments can observe the blow-up.
    """

    def __init__(
        self,
        initial_params: np.ndarray,
        aggregator: Aggregator,
        schedule: LearningRateSchedule,
        *,
        num_servers: int = 1,
        byzantine_servers: int = 0,
        num_shards: int = 1,
        server_attack: ServerAttack | str | None = None,
        rng: np.random.Generator | None = None,
        halt_on_nonfinite: bool = False,
    ):
        params = np.asarray(initial_params, dtype=np.float64)
        if params.ndim != 1:
            raise DimensionMismatchError(
                f"initial_params must be 1-d, got shape {params.shape}"
            )
        num_servers = check_positive_int(num_servers, "num_servers")
        byzantine_servers = check_positive_int(
            byzantine_servers, "byzantine_servers", minimum=0
        )
        num_shards = check_positive_int(num_shards, "num_shards")
        if byzantine_servers > num_servers:
            raise ConfigurationError(
                f"need 0 <= byzantine_servers <= num_servers, got "
                f"byzantine_servers={byzantine_servers} with "
                f"num_servers={num_servers}"
            )
        if isinstance(server_attack, str):
            server_attack = make_server_attack(server_attack)
        if server_attack is not None and not isinstance(
            server_attack, ServerAttack
        ):
            raise ConfigurationError(
                f"server_attack must be a ServerAttack, registry name or "
                f"None, got {type(server_attack).__name__}"
            )
        if byzantine_servers > 0 and server_attack is None:
            raise ConfigurationError(
                f"byzantine_servers={byzantine_servers} requires a "
                f"server_attack"
            )
        if byzantine_servers == 0 and server_attack is not None:
            raise ConfigurationError(
                "a server_attack was supplied but byzantine_servers=0"
            )
        if byzantine_servers > 0 and rng is None:
            raise ConfigurationError(
                "byzantine_servers > 0 requires an rng stream for the "
                "server attack"
            )
        self.num_servers = num_servers
        self.byzantine_servers = byzantine_servers
        self.num_shards = num_shards
        self.server_attack = server_attack
        self._server_rng = rng
        # The adversary controls the last replica ids (fixed placement —
        # replica identity carries no tie-break semantics, unlike worker
        # slots).
        self.byzantine_server_ids = np.arange(
            self.num_servers - self.byzantine_servers,
            self.num_servers,
            dtype=np.int64,
        )
        self.dimension = int(params.shape[0])
        # Every shard must own at least one coordinate.
        shard_bounds(self.dimension, self.num_shards)
        if self.num_shards > 1:
            aggregator = ShardedAggregator(aggregator, self.num_shards)
        self.aggregator = aggregator
        self.schedule = schedule
        self.halt_on_nonfinite = bool(halt_on_nonfinite)
        if self.server_attack is not None:
            # Fresh run: discard any state a reused attack instance may
            # carry from a previous simulation (replay histories, ...),
            # mirroring the simulator's worker-attack reset.
            self.server_attack.reset()

    # ------------------------------------------------------------------

    @property
    def tier_active(self) -> bool:
        """Whether broadcasts go through the replica-view path.

        Sharding alone does not activate it — shards change the
        aggregation, not what workers receive.
        """
        return self.num_servers > 1 or self.byzantine_servers > 0

    def replica_broadcasts(
        self, params: np.ndarray, round_index: int
    ) -> np.ndarray:
        """The ``(num_servers, d)`` matrix of what each replica
        broadcasts this round: honest replicas the canonical ``params``,
        Byzantine replicas whatever the server attack crafts.

        Consumes the server-attack RNG stream once per call, so callers
        must invoke it exactly once per round (the executors do, and
        stack the results through :func:`replica_view`;
        :meth:`corrupted_view` is the one-cell call).
        """
        matrix = np.repeat(
            np.asarray(params, dtype=np.float64)[None], self.num_servers, axis=0
        )
        if self.byzantine_servers > 0:
            assert self.server_attack is not None
            context = ServerAttackContext(
                round_index=int(round_index),
                params=np.asarray(params, dtype=np.float64).copy(),
                num_servers=self.num_servers,
                byzantine_indices=self.byzantine_server_ids,
                rng=self._server_rng,
            )
            matrix[self.byzantine_server_ids] = self.server_attack.corrupt(
                context
            )
        return matrix

    def corrupted_view(
        self, params: np.ndarray, round_index: int
    ) -> np.ndarray:
        """One round's worker view ``x̃_t``: the coordinate median over
        the replica broadcasts of ``params`` at ``round_index``.

        Callers invoke it once per round with the canonical row they
        advance, so the attack sees the canonical ``x_t`` and its RNG
        stream advances once per round.  The executors take the same
        view through :meth:`replica_broadcasts` and one stacked
        :func:`replica_view` over all tier cells of a replica count.
        """
        return replica_view(self.replica_broadcasts(params, round_index))
