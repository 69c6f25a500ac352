"""Attack interface and the omniscient adversary context."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, fields

import numpy as np

from repro.core.aggregator import Aggregator
from repro.exceptions import ConfigurationError, DimensionMismatchError

__all__ = [
    "AttackContext",
    "AttackBatch",
    "CONTEXT_READS",
    "BATCH_READS",
    "Attack",
    "BenignAttack",
]


@dataclass(frozen=True)
class AttackContext:
    """Everything the paper's adversary is allowed to know.

    "The Byzantine workers have full knowledge of the system, including
    the choice function F, the vectors proposed by the other workers and
    can collaborate with each other."  — Section 2.
    """

    round_index: int
    params: np.ndarray
    honest_gradients: np.ndarray  # (n - f, d) proposals of the correct workers
    byzantine_indices: np.ndarray  # positions the f Byzantine workers occupy
    honest_indices: np.ndarray  # positions of the correct workers
    num_workers: int  # n
    rng: np.random.Generator
    aggregator: Aggregator | None = None  # the server's F, if known
    true_gradient: np.ndarray | None = None  # ∇Q(x_t), for omniscient attacks
    # Asynchronous rounds only (None in the synchronous model): the
    # staleness τ of each honest/Byzantine proposal this round, and the
    # (n - f, d) parameter vectors the honest victims *actually*
    # computed their gradients at — x_{t − τ_i}, not the fresh
    # ``params`` — so staleness-aware attacks see exactly what the
    # server will.
    honest_staleness: np.ndarray | None = None  # (n - f,) ints
    byzantine_staleness: np.ndarray | None = None  # (f,) ints
    honest_params: np.ndarray | None = None  # (n - f, d) stale x per victim
    # Defense feedback: whether each Byzantine slot's previous-round
    # proposal was among the indices the choice function *selected*
    # (aligned with ``byzantine_indices``).  ``None`` on the first round
    # and for callers that do not track selection.  The adversary can
    # observe the server's public parameter trajectory, so exposing the
    # selection verdict adds no knowledge the paper's omniscient model
    # does not already grant — it is what makes defense-probing attacks
    # expressible.
    selected_last_round: np.ndarray | None = None  # (f,) bools
    # Decentralized (gossip) rounds only — None on the server path: the
    # out-neighbor ids of each Byzantine node this round (one sorted
    # int64 array per entry of ``byzantine_indices``), and, when the
    # engine crafts per receiving edge (equivocation), the honest node
    # id this particular craft call targets.  ``receiver is None`` means
    # one shared proposal for every edge — the server-path semantics.
    byzantine_neighbors: tuple[np.ndarray, ...] | None = None
    receiver: int | None = None
    # d; taken from an ``(n - f, d)`` ``honest_gradients`` when not
    # given.  The executors pass it, so a context built without the
    # honest rows still knows it.
    dimension: int | None = None

    def __post_init__(self) -> None:
        if self.dimension is None and np.ndim(self.honest_gradients) == 2:
            object.__setattr__(
                self, "dimension", int(self.honest_gradients.shape[1])
            )

    @property
    def num_byzantine(self) -> int:
        return int(len(self.byzantine_indices))

    @property
    def honest_mean(self) -> np.ndarray:
        """Barycenter of the correct proposals — the adversary's best
        estimate of the true gradient when ``true_gradient`` is hidden."""
        return self.honest_gradients.mean(axis=0)

    def validate(self) -> None:
        if self.honest_gradients.ndim != 2:
            raise DimensionMismatchError(
                f"honest_gradients must be (n-f, d), got "
                f"{self.honest_gradients.shape}"
            )
        if len(self.honest_indices) != len(self.honest_gradients):
            raise DimensionMismatchError(
                f"{len(self.honest_indices)} honest indices vs "
                f"{len(self.honest_gradients)} honest gradients"
            )
        total = len(self.honest_indices) + len(self.byzantine_indices)
        if total != self.num_workers:
            raise ConfigurationError(
                f"honest ({len(self.honest_indices)}) + byzantine "
                f"({len(self.byzantine_indices)}) != n ({self.num_workers})"
            )
        overlap = np.intersect1d(self.honest_indices, self.byzantine_indices)
        if overlap.size:
            raise ConfigurationError(
                f"worker indices {overlap.tolist()} are both honest and Byzantine"
            )
        if self.honest_staleness is not None and len(
            self.honest_staleness
        ) != len(self.honest_indices):
            raise DimensionMismatchError(
                f"{len(self.honest_staleness)} staleness entries vs "
                f"{len(self.honest_indices)} honest workers"
            )
        if self.byzantine_staleness is not None and len(
            self.byzantine_staleness
        ) != len(self.byzantine_indices):
            raise DimensionMismatchError(
                f"{len(self.byzantine_staleness)} staleness entries vs "
                f"{len(self.byzantine_indices)} byzantine workers"
            )
        if (
            self.honest_params is not None
            and self.honest_params.shape != self.honest_gradients.shape
        ):
            raise DimensionMismatchError(
                f"honest_params shape {self.honest_params.shape} does not "
                f"match honest_gradients {self.honest_gradients.shape}"
            )
        if self.selected_last_round is not None and len(
            self.selected_last_round
        ) != len(self.byzantine_indices):
            raise DimensionMismatchError(
                f"{len(self.selected_last_round)} selection flags vs "
                f"{len(self.byzantine_indices)} byzantine workers"
            )
        if self.byzantine_neighbors is not None and len(
            self.byzantine_neighbors
        ) != len(self.byzantine_indices):
            raise DimensionMismatchError(
                f"{len(self.byzantine_neighbors)} neighbor views vs "
                f"{len(self.byzantine_indices)} byzantine workers"
            )
        if self.receiver is not None and not (
            0 <= int(self.receiver) < self.num_workers
        ):
            raise ConfigurationError(
                f"receiver {self.receiver} outside [0, {self.num_workers})"
            )


#: The context fields an attack declares in :attr:`Attack.reads`.  The
#: rest — ``round_index``, the worker ids, ``num_workers``,
#: ``dimension`` and ``receiver`` — cost nothing and are always set.
CONTEXT_READS = frozenset(
    field.name
    for field in fields(AttackContext)
    if field.name
    not in {
        "round_index",
        "byzantine_indices",
        "honest_indices",
        "num_workers",
        "dimension",
        "receiver",
    }
)


@dataclass(frozen=True)
class AttackBatch:
    """The contexts of B cells crafted by one attack configuration in
    one round, stacked on a leading cell axis.

    All B cells share ``num_workers``, ``num_byzantine`` and the round,
    and either all or none of them run the asynchronous model or expose
    the true gradient.  Slice ``b`` of each array field is cell ``b``'s
    :class:`AttackContext` field; an executor fills only the fields the
    attack declares in :attr:`Attack.reads` (:data:`BATCH_READS` are
    the ones a batch carries) and leaves the others ``None``.
    """

    round_index: int
    num_workers: int
    num_byzantine: int
    dimension: int
    size: int  # B
    rngs: tuple[np.random.Generator, ...] | None = None  # one per cell
    honest_gradients: np.ndarray | None = None  # (B, n - f, d)
    true_gradient: np.ndarray | None = None  # (B, d)
    byzantine_staleness: np.ndarray | None = None  # (B, f) ints


#: The context fields an :class:`AttackBatch` carries (``rng`` as the
#: per-cell ``rngs``).
BATCH_READS = frozenset(
    {"rng", "honest_gradients", "true_gradient", "byzantine_staleness"}
)


class Attack(ABC):
    """Strategy producing the f Byzantine proposals for one round.

    :attr:`reads` declares the :data:`CONTEXT_READS` fields
    :meth:`craft` reads; the executors build only those and pass
    ``None`` for the others.  The default is every field, and a
    subclass that overrides :meth:`craft` without declaring its own
    :attr:`reads` is back at the default.  A stateless
    attack registered through
    :func:`~repro.attacks.registry.register_batched_craft` also
    implements ``craft_batch(batch: AttackBatch) -> (B, f, d)``, whose
    slice ``b`` equals :meth:`craft` on cell ``b``'s context bit for
    bit, each cell's generator drawn as its own craft would.
    """

    name: str = "attack"
    #: True for attacks that carry mutable per-run state across rounds.
    #: Stateful attacks must implement :meth:`reset` so one instance can
    #: be reused across sequential runs, and must not be shared between
    #: concurrently-executing scenarios.
    stateful: bool = False
    #: The context fields :meth:`craft` reads.
    reads: frozenset[str] = CONTEXT_READS

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # A declaration describes the craft next to it, not an override.
        if "craft" in vars(cls) and "reads" not in vars(cls):
            cls.reads = CONTEXT_READS

    @abstractmethod
    def craft(self, context: AttackContext) -> np.ndarray:
        """Return an ``(f, d)`` array of Byzantine proposals.

        Must return exactly ``context.num_byzantine`` rows of dimension
        ``context.dimension``.
        """

    def reset(self) -> None:
        """Discard per-run state so the instance can start a fresh run.

        Stateless attacks inherit this no-op; stateful ones override it.
        Simulations call it once at construction time, so reusing an
        attack instance sequentially is deterministic.
        """

    def _output(self, context: AttackContext, vectors: np.ndarray) -> np.ndarray:
        """Validate and shape an attack's output (helper for subclasses)."""
        vectors = np.asarray(vectors, dtype=np.float64)
        expected = (context.num_byzantine, context.dimension)
        if vectors.shape != expected:
            raise DimensionMismatchError(
                f"{self.name} produced shape {vectors.shape}, expected {expected}"
            )
        return vectors

    def _output_batch(self, batch: AttackBatch, vectors: np.ndarray) -> np.ndarray:
        """:meth:`_output` for ``craft_batch``: a ``(B, f, d)`` block."""
        vectors = np.asarray(vectors, dtype=np.float64)
        expected = (batch.size, batch.num_byzantine, batch.dimension)
        if vectors.shape != expected:
            raise DimensionMismatchError(
                f"{self.name} produced shape {vectors.shape}, expected {expected}"
            )
        return vectors

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class BenignAttack(Attack):
    """Byzantine workers that behave correctly (control condition).

    Each "Byzantine" worker resends the honest barycenter perturbed with
    the empirical honest standard deviation, i.e. it is statistically
    indistinguishable from a correct worker.  Used to verify an attack
    harness adds no artifacts of its own.
    """

    name = "benign"
    reads = frozenset({"honest_gradients", "rng"})

    def craft(self, context: AttackContext) -> np.ndarray:
        mean = context.honest_mean
        std = context.honest_gradients.std(axis=0)
        proposals = mean + std * context.rng.standard_normal(
            (context.num_byzantine, context.dimension)
        )
        return self._output(context, proposals)
