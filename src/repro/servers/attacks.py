"""Server-side attacks — corrupted parameter broadcasts.

The paper assumes one reliable parameter server (footnote 2).  The
server tier drops that assumption the way ByzSGD and Garfield do: the
server is replicated, and up to ``byzantine_servers`` replicas may
return *corrupted parameter broadcasts* to the workers.  A
:class:`ServerAttack` is the strategy producing those corrupted
broadcasts — the server-side mirror of the worker-side
:class:`~repro.attacks.base.Attack` (which corrupts gradient
*proposals*), with the same craft contract: a validated fixed-shape
float64 output, determinism under a fixed RNG, a ``stateful`` flag and a
``reset()`` hook for attacks that carry per-run state.

Built-in strategies:

* ``sign-flip-broadcast`` — each Byzantine replica broadcasts
  ``−scale · x_t``, steering workers to compute ascent directions;
* ``stale-replay-broadcast`` — replays the canonical broadcast from
  ``delay`` rounds ago (stateful: it records the broadcast history);
* ``random-noise-broadcast`` — adds i.i.d. Gaussian noise of scale
  ``sigma`` to the true broadcast, blurring what workers train against.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError, DimensionMismatchError
from repro.utils.validation import check_positive_int

__all__ = [
    "ServerAttackContext",
    "ServerAttack",
    "SignFlipBroadcastAttack",
    "StaleReplayBroadcastAttack",
    "RandomNoiseBroadcastAttack",
]


@dataclass(frozen=True)
class ServerAttackContext:
    """Everything a Byzantine server replica knows when it broadcasts.

    A Byzantine replica sees the canonical parameter state ``params``
    (honest replicas stay lock-step on it — corruption perturbs only
    what workers *receive*), the round counter, the replica topology,
    and a dedicated RNG stream spawned from the cell's root seed.
    """

    round_index: int
    params: np.ndarray  # (d,) the canonical broadcast x_t
    num_servers: int
    byzantine_indices: np.ndarray  # replica ids the adversary controls
    rng: np.random.Generator

    @property
    def num_byzantine(self) -> int:
        return int(len(self.byzantine_indices))

    @property
    def dimension(self) -> int:
        return int(self.params.shape[0])

    def validate(self) -> None:
        if np.asarray(self.params).ndim != 1:
            raise DimensionMismatchError(
                f"params must be (d,), got shape {np.asarray(self.params).shape}"
            )
        if self.num_servers < 1:
            raise ConfigurationError(
                f"num_servers must be >= 1, got {self.num_servers}"
            )
        indices = np.asarray(self.byzantine_indices)
        if indices.size > self.num_servers:
            raise ConfigurationError(
                f"{indices.size} byzantine replicas exceed the "
                f"{self.num_servers}-replica group"
            )
        if indices.size and (
            indices.min() < 0 or indices.max() >= self.num_servers
        ):
            raise ConfigurationError(
                f"byzantine replica ids must lie in [0, {self.num_servers}), "
                f"got {indices.tolist()}"
            )


class ServerAttack(ABC):
    """Strategy producing the corrupted replica broadcasts for one round."""

    name: str = "server-attack"
    #: True for attacks that carry mutable per-run state across rounds.
    #: Stateful attacks must implement :meth:`reset` so one instance can
    #: be reused across sequential runs, and must not be shared between
    #: concurrently-executing scenarios (the batched executor rejects
    #: such sharing, exactly as it does for worker-side attacks).
    stateful: bool = False

    @abstractmethod
    def corrupt(self, context: ServerAttackContext) -> np.ndarray:
        """Return a ``(byzantine_servers, d)`` array of corrupted
        broadcasts, one row per controlled replica."""

    def reset(self) -> None:
        """Discard per-run state so the instance can start a fresh run.

        Stateless attacks inherit this no-op; stateful ones override it.
        The server group calls it once at construction time, so reusing
        an attack instance sequentially is deterministic.
        """

    def _output(
        self, context: ServerAttackContext, vectors: np.ndarray
    ) -> np.ndarray:
        """Validate and shape an attack's output (helper for subclasses)."""
        vectors = np.asarray(vectors, dtype=np.float64)
        expected = (context.num_byzantine, context.dimension)
        if vectors.shape != expected:
            raise DimensionMismatchError(
                f"{self.name} produced shape {vectors.shape}, expected {expected}"
            )
        return vectors

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class SignFlipBroadcastAttack(ServerAttack):
    """Broadcast ``−scale · x_t``: the mirrored parameter state.

    Workers that trust this replica compute gradients at the mirrored
    point, turning descent into ascent on symmetric objectives — a
    single Byzantine server defeats an unreplicated run outright, while
    a worker-side coordinate median over three or more replicas restores
    the true broadcast exactly (two honest copies out-vote the flip).
    """

    def __init__(self, scale: float = 1.0):
        if not scale > 0:
            raise ConfigurationError(f"scale must be positive, got {scale}")
        self.scale = float(scale)
        self.name = (
            "sign-flip-broadcast"
            if self.scale == 1.0
            else f"sign-flip-broadcast(scale={self.scale})"
        )

    def corrupt(self, context: ServerAttackContext) -> np.ndarray:
        corrupted = np.repeat(
            (-self.scale * context.params)[None], context.num_byzantine, axis=0
        )
        return self._output(context, corrupted)


class StaleReplayBroadcastAttack(ServerAttack):
    """Replay the canonical broadcast from ``delay`` rounds ago.

    Models a replica that stopped updating (or deliberately serves stale
    state): workers it reaches train against old parameters.  Stateful —
    it records the broadcast history it replays from, so one instance
    must not be shared across concurrently-executing scenarios.
    """

    stateful = True

    def __init__(self, delay: int = 5):
        self.delay = check_positive_int(delay, "delay")
        self.name = f"stale-replay-broadcast(delay={self.delay})"
        self._history: list[np.ndarray] = []

    def corrupt(self, context: ServerAttackContext) -> np.ndarray:
        self._history.append(np.asarray(context.params, dtype=np.float64).copy())
        if len(self._history) > self.delay + 1:
            self._history.pop(0)
        stale = self._history[0]
        return self._output(
            context, np.tile(stale, (context.num_byzantine, 1))
        )

    def reset(self) -> None:
        """Clear the replay history (call between independent runs)."""
        self._history.clear()


class RandomNoiseBroadcastAttack(ServerAttack):
    """Broadcast ``x_t + sigma · N(0, I)``: a noisy parameter state.

    Each controlled replica adds independent Gaussian noise, drawn from
    the attack's dedicated RNG stream, to the true broadcast — the
    server-side analogue of the worker-side Gaussian attack.
    """

    def __init__(self, sigma: float = 1.0):
        if not sigma > 0:
            raise ConfigurationError(f"sigma must be positive, got {sigma}")
        self.sigma = float(sigma)
        self.name = (
            "random-noise-broadcast"
            if self.sigma == 1.0
            else f"random-noise-broadcast(sigma={self.sigma})"
        )

    def corrupt(self, context: ServerAttackContext) -> np.ndarray:
        noise = self.sigma * context.rng.standard_normal(
            (context.num_byzantine, context.dimension)
        )
        return self._output(context, context.params + noise)
