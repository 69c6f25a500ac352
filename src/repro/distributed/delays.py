"""Deterministic worker-delay schedules for asynchronous rounds.

The paper's model is fully synchronous: every worker's round-t proposal
is computed at ``x_t``.  Real deployments (Garfield, Kardam) serve
heterogeneous workers whose gradients arrive *stale* — a worker's
round-t proposal is the gradient it computed at ``x_{t−τ}``.  A
:class:`DelaySchedule` is the reproducible model of that heterogeneity:
a pure function ``staleness(worker_id, round_index) -> τ ≥ 0`` giving
each worker's desired lag at each round, plus its block form
``staleness_block(worker_ids, round_indices) -> (R, W)`` — the same
values for a whole rounds × workers grid in one call, which the batched
executor prefetches instead of issuing one scalar query per worker per
round.

The *effective* staleness a simulation applies is
``min(τ, round_index, max_staleness)`` — a worker cannot see parameters
from before round 0, and the bounded-staleness protocol (the server's
``max_staleness`` window, stale-synchronous-parallel style) blocks a
worker from lagging further than the bound.  ``max_staleness = 0``
therefore degenerates to the synchronous loop *bit for bit*, whatever
schedule is configured.

Randomized schedules are seeded from the simulation: the simulator calls
:meth:`DelaySchedule.bind` with a dedicated RNG stream spawned from the
root seed, so the full delay pattern is reproducible from one integer
and identical across the loop and batched executors.

The schedules are a :class:`~repro.utils.registry.Registry`
(``register_delay_schedule`` / ``available_delay_schedules`` /
``make_delay_schedule``) whose ``None`` arm is the synchronous model.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

import numpy as np

from repro.exceptions import ConfigurationError, DimensionMismatchError
from repro.utils.rng import seed_sequence_state
from repro.utils.registry import Registry
from repro.utils.validation import check_positive_int

__all__ = [
    "DelaySchedule",
    "ZeroDelay",
    "ConstantDelay",
    "PeriodicDelay",
    "SeededRandomDelay",
    "DELAY_SCHEDULES",
    "register_delay_schedule",
    "available_delay_schedules",
    "delay_schedule_factory",
    "make_delay_schedule",
]


class DelaySchedule(ABC):
    """Per-worker, per-round desired staleness ``τ``.

    Implementations must be *pure*: ``staleness(i, t)`` may depend only
    on the arguments and on state fixed at :meth:`bind` time, so the
    loop and batched executors (which query in different orders) see the
    same delays.  :meth:`staleness_block` is the vectorized form of the
    same function; the default loops over :meth:`staleness`, so a custom
    schedule only needs ``staleness`` and may override the block form
    for speed.
    """

    #: Registry name; subclasses set this as a class attribute.
    name: str = "delay"

    @abstractmethod
    def staleness(self, worker_id: int, round_index: int) -> int:
        """Desired lag of ``worker_id``'s round-``round_index`` proposal."""

    def staleness_block(
        self, worker_ids: Sequence[int], round_indices: Sequence[int]
    ) -> np.ndarray:
        """Desired lags of a rounds × workers grid, as an ``(R, W)`` int64
        array with ``block[r, w] == staleness(worker_ids[w],
        round_indices[r])``.

        Pure like :meth:`staleness`.  This default queries
        :meth:`staleness` once per element; built-in schedules override
        it with a vectorized equivalent.
        """
        workers, rounds = _block_axes(worker_ids, round_indices)
        block = np.empty((rounds.size, workers.size), dtype=np.int64)
        for r, round_index in enumerate(rounds.tolist()):
            for w, worker_id in enumerate(workers.tolist()):
                block[r, w] = int(self.staleness(worker_id, round_index))
        return block

    def bind(self, rng: np.random.Generator) -> "DelaySchedule":
        """Fix any randomness from a simulation-derived stream.

        Deterministic schedules return themselves; randomized ones
        return a bound copy whose ``staleness`` is a pure function.
        The simulator calls this once at construction time with a
        stream spawned from the root seed.
        """
        return self

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def _block_axes(
    worker_ids: Sequence[int], round_indices: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """The two axes of a :meth:`DelaySchedule.staleness_block` query as
    1-D int64 arrays."""
    workers = np.asarray(worker_ids, dtype=np.int64)
    rounds = np.asarray(round_indices, dtype=np.int64)
    if workers.ndim != 1 or rounds.ndim != 1:
        raise DimensionMismatchError(
            f"worker_ids and round_indices must be 1-D, got shapes "
            f"{workers.shape} and {rounds.shape}"
        )
    return workers, rounds


class ZeroDelay(DelaySchedule):
    """Every worker is always fresh — the synchronous degenerate case."""

    name = "none"

    def staleness(self, worker_id: int, round_index: int) -> int:
        return 0

    def staleness_block(
        self, worker_ids: Sequence[int], round_indices: Sequence[int]
    ) -> np.ndarray:
        workers, rounds = _block_axes(worker_ids, round_indices)
        return np.zeros((rounds.size, workers.size), dtype=np.int64)


class ConstantDelay(DelaySchedule):
    """A fixed lag ``tau``, for every worker or a chosen subset.

    ``workers=None`` delays the whole cluster uniformly; an explicit id
    sequence models a straggler subset (only those workers lag, the rest
    stay fresh).
    """

    name = "constant"

    def __init__(self, tau: int = 1, workers: Sequence[int] | None = None):
        self.tau = check_positive_int(tau, "tau", minimum=0)
        if workers is None:
            self._workers: frozenset[int] | None = None
        else:
            ids = [int(w) for w in workers]
            if any(w < 0 for w in ids):
                raise ConfigurationError(
                    f"worker ids must be >= 0, got {sorted(ids)}"
                )
            self._workers = frozenset(ids)

    def staleness(self, worker_id: int, round_index: int) -> int:
        if self._workers is None or worker_id in self._workers:
            return self.tau
        return 0

    def staleness_block(
        self, worker_ids: Sequence[int], round_indices: Sequence[int]
    ) -> np.ndarray:
        workers, rounds = _block_axes(worker_ids, round_indices)
        if self._workers is None:
            lagging = np.ones(workers.size, dtype=bool)
        else:
            lagging = np.isin(workers, sorted(self._workers))
        row = np.where(lagging, self.tau, 0).astype(np.int64)
        return np.repeat(row[None, :], rounds.size, axis=0)


class PeriodicDelay(DelaySchedule):
    """Workers lag ``tau`` on a periodic round pattern.

    Worker ``i`` is stale on rounds where ``(t + i·stagger) % period``
    is zero — with the default ``stagger=1`` the lag sweeps through the
    cluster one worker per round (a rotating straggler), while
    ``stagger=0`` makes the whole cluster hiccup together every
    ``period`` rounds.
    """

    name = "periodic"

    def __init__(self, tau: int = 1, period: int = 4, stagger: int = 1):
        self.tau = check_positive_int(tau, "tau", minimum=0)
        self.period = check_positive_int(period, "period")
        self.stagger = check_positive_int(stagger, "stagger", minimum=0)

    def staleness(self, worker_id: int, round_index: int) -> int:
        if (round_index + worker_id * self.stagger) % self.period == 0:
            return self.tau
        return 0

    def staleness_block(
        self, worker_ids: Sequence[int], round_indices: Sequence[int]
    ) -> np.ndarray:
        workers, rounds = _block_axes(worker_ids, round_indices)
        phase = (rounds[:, None] + workers[None, :] * self.stagger) % self.period
        return np.where(phase == 0, self.tau, 0).astype(np.int64)


class SeededRandomDelay(DelaySchedule):
    """Independent random lags, reproducible from the simulation seed.

    Each ``(worker, round)`` pair is stale with probability ``prob``,
    with a lag drawn uniformly from ``{1, ..., max_delay}`` — a simple
    model of jittery network/compute heterogeneity.  The draw is
    *counter-based*: ``staleness(i, t)`` keys a ``SeedSequence`` on the
    bound entropy plus ``(i, t)``, so it is a pure function queryable in
    any order (the loop and batched executors must agree) and never
    consumes shared stream state.

    Unbound instances (``entropy=None``) must be :meth:`bind`-ed before
    use; the simulator does this with a stream spawned from its root
    seed, making the whole delay pattern a function of the cell's seed.
    """

    name = "random"

    def __init__(
        self,
        max_delay: int = 4,
        prob: float = 1.0,
        entropy: int | None = None,
    ):
        self.max_delay = check_positive_int(max_delay, "max_delay")
        if not 0.0 <= float(prob) <= 1.0:
            raise ConfigurationError(
                f"prob must be in [0, 1], got {prob}"
            )
        self.prob = float(prob)
        self.entropy = None if entropy is None else int(entropy)

    def bind(self, rng: np.random.Generator) -> "SeededRandomDelay":
        return SeededRandomDelay(
            max_delay=self.max_delay,
            prob=self.prob,
            entropy=int(rng.integers(0, 2**63)),
        )

    def _bound_entropy(self) -> int:
        if self.entropy is None:
            raise ConfigurationError(
                "unbound random delay schedule: pass it to a simulation "
                "(which binds it from the root seed) or call bind() first"
            )
        return self.entropy

    def staleness(self, worker_id: int, round_index: int) -> int:
        words = np.random.SeedSequence(
            entropy=(self._bound_entropy(), int(worker_id), int(round_index))
        ).generate_state(2, dtype=np.uint64)
        if self.prob < 1.0 and float(words[0]) / 2.0**64 >= self.prob:
            return 0
        return int(words[1] % np.uint64(self.max_delay)) + 1

    def staleness_block(
        self, worker_ids: Sequence[int], round_indices: Sequence[int]
    ) -> np.ndarray:
        # The same draw as staleness(), hashed for every (worker, round)
        # key at once by the exact vectorized SeedSequence in utils.rng.
        entropy = self._bound_entropy()
        workers, rounds = _block_axes(worker_ids, round_indices)
        keys = np.empty((rounds.size, workers.size, 2), dtype=np.int64)
        keys[..., 0] = workers[None, :]
        keys[..., 1] = rounds[:, None]
        words = seed_sequence_state(entropy, keys.reshape(-1, 2)).reshape(
            rounds.size, workers.size, 2
        )
        block = (words[..., 1] % np.uint64(self.max_delay)).astype(np.int64) + 1
        if self.prob < 1.0:
            block[words[..., 0].astype(np.float64) / 2.0**64 >= self.prob] = 0
        return block


# ----------------------------------------------------------------------
# Registry

DELAY_SCHEDULES: Registry[DelaySchedule] = Registry("delay schedule")

register_delay_schedule = DELAY_SCHEDULES.register
available_delay_schedules = DELAY_SCHEDULES.names
delay_schedule_factory = DELAY_SCHEDULES.factory
make_delay_schedule = DELAY_SCHEDULES.make_optional

register_delay_schedule("none", ZeroDelay)
register_delay_schedule("constant", ConstantDelay)
register_delay_schedule("periodic", PeriodicDelay)
register_delay_schedule("random", SeededRandomDelay)
