"""The attack × defense tournament.

The reproduction's robustness claims were, until now, demonstrated on
hand-picked attack/defense pairings.  The tournament closes the gap:
:class:`TournamentRunner` expands **every** registered attack against
**every** registered defense over a slate of workloads, seeds and
asynchrony cells, executes the cells through the scenario-grid engine,
and condenses each pairing into one :class:`LeagueRow` — final error,
error ratio against the defense's attack-free baseline,
rounds-to-threshold, and a breakdown flag.  The resulting league table
is the repo's robustness scoreboard (``BENCH_tournament.json``): a new
attack must face every defense, a new defense every attack, and a
regression in either direction shows up as a moved row, not a missing
experiment.

Failure isolation: each (attack, defense) pairing runs in its own grid,
so a pairing that *legitimately* explodes — e.g. the non-finite attack
destroying a rule that propagates NaN — is recorded as a breakdown row
(with the library's exception taxonomy name) instead of aborting the
tournament.  No pairing is silently omitted.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.attacks.registry import available_attacks
from repro.core.registry import available_aggregators
from repro.distributed.metrics import TrainingHistory
from repro.engine.grid import ScenarioGrid
from repro.engine.runner import run_grid
from repro.exceptions import ConfigurationError, ReproError
from repro.utils.validation import check_positive_int

__all__ = [
    "AsyncCell",
    "LeagueRow",
    "TournamentResult",
    "TournamentRunner",
    "default_attack_slate",
    "default_defense_slate",
]


@dataclass(frozen=True)
class AsyncCell:
    """One asynchrony condition of the slate: the server's staleness
    bound plus a delay schedule (``None`` schedule = synchronous)."""

    max_staleness: int = 0
    delay_schedule: str | None = None
    delay_kwargs: Mapping = field(default_factory=dict)

    def __hash__(self) -> int:
        # The generated hash would raise on the kwargs dict; hash a
        # frozen encoding instead (repr-encoded, collision-safe enough
        # for the slate-key use).  Equality stays field-wise.
        return hash(
            (
                self.max_staleness,
                self.delay_schedule,
                tuple(
                    sorted(
                        (k, repr(v)) for k, v in self.delay_kwargs.items()
                    )
                ),
            )
        )

    @property
    def label(self) -> str:
        if self.max_staleness == 0 and self.delay_schedule is None:
            return "sync"
        schedule = self.delay_schedule or "no-delay"
        return f"stale<={self.max_staleness}|{schedule}"


def default_defense_slate(
    num_workers: int, num_byzantine: int
) -> tuple[tuple[str, dict], ...]:
    """Every registered aggregation rule, with the minimal kwargs each
    needs beyond the grid's automatic ``f`` injection.

    ``multi-krum`` selects the paper's ``m = n − f − 2`` proposals;
    ``weighted-average`` gets uniform weights (it has no f-free
    default).  Everything else rides the registry defaults.
    """
    n, f = int(num_workers), int(num_byzantine)
    extras: dict[str, dict] = {
        "multi-krum": {"m": max(1, n - f - 2)},
        "weighted-average": {"weights": [1.0] * n},
    }
    return tuple(
        (name, extras.get(name, {})) for name in available_aggregators()
    )


def default_attack_slate(num_byzantine: int) -> tuple[tuple[str, dict], ...]:
    """Every registered attack strategy, default-configured.

    ``composite`` — the one registered attack without a self-contained
    default — splits the Byzantine slots between a crash and a sign
    flip; with a single slot it degenerates to the crash alone.
    """
    f = int(num_byzantine)
    if f < 1:
        raise ConfigurationError(
            f"the attack slate needs num_byzantine >= 1, got {f}"
        )
    if f > 1:
        parts = (("crash", {}, 1), ("sign-flip", {}, f - 1))
    else:
        parts = (("crash", {}, 1),)
    extras: dict[str, dict] = {"composite": {"parts": parts}}
    return tuple((name, extras.get(name, {})) for name in available_attacks())


@dataclass(frozen=True)
class LeagueRow:
    """One (attack, defense) pairing condensed over the slate.

    ``final_error`` is the mean terminal error over the pairing's
    finite cells; ``baseline_error`` the same defense's attack-free
    mean; ``error_ratio`` their quotient.  ``rounds_to_threshold`` is
    the mean first evaluated round at which a cell's error dropped to
    ``threshold_factor ×`` its matched baseline (over the cells that
    got there; ``reached_fraction`` says how many did).  ``breakdown``
    marks pairings that diverged (non-finite or ``breakdown_factor ×``
    past baseline) or raised, with the reason recorded.
    """

    attack: str
    defense: str
    cells: int
    final_error: float | None
    baseline_error: float | None
    error_ratio: float | None
    rounds_to_threshold: float | None
    reached_fraction: float
    breakdown: bool
    breakdown_reason: str | None = None

    def to_payload(self) -> dict:
        return {
            "attack": self.attack,
            "defense": self.defense,
            "cells": self.cells,
            "final_error": self.final_error,
            "baseline_error": self.baseline_error,
            "error_ratio": self.error_ratio,
            "rounds_to_threshold": self.rounds_to_threshold,
            "reached_fraction": self.reached_fraction,
            "breakdown": self.breakdown,
            "breakdown_reason": self.breakdown_reason,
        }


@dataclass(frozen=True)
class TournamentResult:
    """The full league: one row per (attack, defense) pairing."""

    rows: tuple[LeagueRow, ...]
    attacks: tuple[str, ...]
    defenses: tuple[str, ...]
    num_workers: int
    num_byzantine: int
    num_rounds: int
    seeds: tuple[int, ...]
    mode: str

    def row(self, attack: str, defense: str) -> LeagueRow:
        for row in self.rows:
            if row.attack == attack and row.defense == defense:
                return row
        raise KeyError(f"no league row for ({attack!r}, {defense!r})")

    def covers_product(self) -> bool:
        """Whether every (attack, defense) pairing has exactly one row."""
        pairs = {(row.attack, row.defense) for row in self.rows}
        expected = {
            (a, d) for a in self.attacks for d in self.defenses
        }
        return pairs == expected and len(self.rows) == len(expected)

    def to_payload(self) -> dict:
        """JSON-ready summary.  Deterministic for a fixed configuration:
        no wall times or environment facts, so a same-seed rerun
        reproduces the payload byte for byte."""
        return {
            "tournament": {
                "num_workers": self.num_workers,
                "num_byzantine": self.num_byzantine,
                "num_rounds": self.num_rounds,
                "seeds": list(self.seeds),
                "mode": self.mode,
                "attacks": list(self.attacks),
                "defenses": list(self.defenses),
            },
            "league": [row.to_payload() for row in self.rows],
        }


def _finite_or_none(value: float) -> float | None:
    """JSON has no Inf/NaN; non-finite errors report as ``None`` (the
    breakdown flag carries the signal)."""
    return float(value) if math.isfinite(value) else None


def _error_series(
    history: TrainingHistory,
) -> tuple[list[int], list[float]]:
    """The evaluated (round, error) points of one cell's history.

    Error prefers the workload's distance-to-optimum extra (the analytic
    workloads expose it), then the loss — the same precedence the
    reproduction benches use.
    """
    rounds: list[int] = []
    values: list[float] = []
    for record in history.records:
        if record.extras and "dist_to_opt" in record.extras:
            value = record.extras["dist_to_opt"]
        elif record.loss is not None:
            value = record.loss
        else:
            continue
        rounds.append(int(record.round_index))
        values.append(float(value))
    if not values:
        raise ConfigurationError(
            "tournament workloads must evaluate a loss or dist_to_opt "
            "metric; got a history with neither"
        )
    return rounds, values


class TournamentRunner:
    """Run the attack × defense league over a declarative slate.

    Parameters
    ----------
    attacks / defenses:
        ``(registry_name, kwargs)`` pairs; default to every registered
        attack and every registered rule (see
        :func:`default_attack_slate` / :func:`default_defense_slate`).
    seeds, workloads, async_cells:
        The slate each pairing is measured over: every combination of
        seed × workload × asynchrony condition contributes one cell.
    num_workers / num_byzantine:
        Cluster shape shared by all cells.  The defaults (15, 3) satisfy
        every registered rule's tolerance precondition, including
        Bulyan's ``n ≥ 4f + 3``.
    num_rounds, eval_every, learning_rate, lr_timescale:
        Per-cell training knobs, threaded to the grid.
    mode:
        Grid execution mode (``"batched"`` default, ``"loop"``).
    threshold_factor:
        A cell "reaches threshold" at the first evaluated round with
        error ``<= threshold_factor × `` its matched baseline's final
        error.
    breakdown_factor:
        A pairing breaks down when its mean error exceeds
        ``breakdown_factor ×`` baseline (or goes non-finite/raises).
    """

    def __init__(
        self,
        *,
        attacks: Sequence[tuple[str, Mapping]] | None = None,
        defenses: Sequence[tuple[str, Mapping]] | None = None,
        seeds: Sequence[int] = (0,),
        workloads: Sequence[tuple[str, Mapping]] = (
            ("quadratic", {"dimension": 20, "sigma": 0.5}),
        ),
        async_cells: Sequence[AsyncCell] = (
            AsyncCell(),
            AsyncCell(max_staleness=3, delay_schedule="periodic",
                      delay_kwargs={"tau": 3, "period": 2}),
        ),
        num_workers: int = 15,
        num_byzantine: int = 3,
        num_rounds: int = 40,
        eval_every: int = 5,
        learning_rate: float = 0.1,
        lr_timescale: float | None = 100.0,
        mode: str = "batched",
        threshold_factor: float = 2.0,
        breakdown_factor: float = 25.0,
    ):
        num_workers = check_positive_int(num_workers, "num_workers")
        num_byzantine = check_positive_int(
            num_byzantine, "num_byzantine", minimum=0
        )
        if num_byzantine < 1:
            raise ConfigurationError(
                f"the tournament needs num_byzantine >= 1, got {num_byzantine}"
            )
        if num_byzantine >= num_workers:
            raise ConfigurationError(
                f"need f < n, got f={num_byzantine}, n={num_workers}"
            )
        if threshold_factor <= 0 or breakdown_factor <= 0:
            raise ConfigurationError(
                "threshold_factor and breakdown_factor must be positive"
            )
        self.num_workers = num_workers
        self.num_byzantine = num_byzantine
        self.attacks = tuple(
            (name, dict(kwargs))
            for name, kwargs in (
                default_attack_slate(self.num_byzantine)
                if attacks is None
                else attacks
            )
        )
        self.defenses = tuple(
            (name, dict(kwargs))
            for name, kwargs in (
                default_defense_slate(self.num_workers, self.num_byzantine)
                if defenses is None
                else defenses
            )
        )
        if not self.attacks or not self.defenses:
            raise ConfigurationError(
                "the tournament needs at least one attack and one defense"
            )
        for axis, label in ((self.attacks, "attack"), (self.defenses, "defense")):
            names = [name for name, _kwargs in axis]
            if len(set(names)) != len(names):
                raise ConfigurationError(
                    f"duplicate {label} names in the slate: {sorted(names)}"
                )
        self.seeds = tuple(int(s) for s in seeds)
        self.workloads = tuple(
            (name, dict(kwargs)) for name, kwargs in workloads
        )
        self.async_cells = tuple(async_cells)
        if not self.seeds or not self.workloads or not self.async_cells:
            raise ConfigurationError(
                "the slate needs at least one seed, workload and async cell"
            )
        self.num_rounds = check_positive_int(num_rounds, "num_rounds")
        self.eval_every = check_positive_int(eval_every, "eval_every")
        self.learning_rate = float(learning_rate)
        self.lr_timescale = lr_timescale
        self.mode = mode
        self.threshold_factor = float(threshold_factor)
        self.breakdown_factor = float(breakdown_factor)

    # ------------------------------------------------------------------

    @property
    def cells_per_pair(self) -> int:
        """How many slate cells each (attack, defense) pairing runs:
        seeds × workloads × async cells."""
        return (
            len(self.seeds) * len(self.workloads) * len(self.async_cells)
        )

    def _grid(
        self,
        cell: AsyncCell,
        *,
        defense: tuple[str, dict],
        attack: tuple[str, dict] | None,
    ) -> ScenarioGrid:
        """One pairing's (or baseline's) sub-grid on one async cell."""
        return ScenarioGrid(
            seeds=self.seeds,
            attacks=() if attack is None else (attack,),
            aggregators=(defense,),
            f_values=(0,) if attack is None else (self.num_byzantine,),
            num_workers=self.num_workers,
            num_rounds=self.num_rounds,
            workloads=self.workloads,
            learning_rate=self.learning_rate,
            lr_timescale=self.lr_timescale,
            max_staleness=cell.max_staleness,
            delay_schedule=cell.delay_schedule,
            delay_kwargs=dict(cell.delay_kwargs),
        )

    def _cell_errors(
        self,
        cell: AsyncCell,
        *,
        defense: tuple[str, dict],
        attack: tuple[str, dict] | None,
    ) -> list[tuple[list[int], list[float]]]:
        """Run one sub-grid and extract each cell's error series, in the
        grid's deterministic cell order."""
        result = run_grid(
            self._grid(cell, defense=defense, attack=attack),
            mode=self.mode,
            eval_every=self.eval_every,
        )
        return [
            _error_series(result.histories[spec.label])
            for spec in result.specs
        ]

    def _baselines(
        self,
    ) -> dict[tuple[str, AsyncCell], list[float]]:
        """Attack-free final error per (defense, async cell), one entry
        per slate cell in grid order — the yardstick every pairing's
        cells are matched against positionally."""
        baselines: dict[tuple[str, AsyncCell], list[float]] = {}
        for defense in self.defenses:
            for cell in self.async_cells:
                series = self._cell_errors(cell, defense=defense, attack=None)
                baselines[(defense[0], cell)] = [
                    values[-1] for _rounds, values in series
                ]
        return baselines

    def _pair_row(
        self,
        attack: tuple[str, dict],
        defense: tuple[str, dict],
        baselines: dict[tuple[str, AsyncCell], list[float]],
    ) -> LeagueRow:
        finals: list[float] = []
        matched_baselines: list[float] = []
        reach_rounds: list[int] = []
        reached = 0
        total = 0
        try:
            for cell in self.async_cells:
                series = self._cell_errors(
                    cell, defense=defense, attack=attack
                )
                cell_baselines = baselines[(defense[0], cell)]
                for (rounds, values), baseline in zip(
                    series, cell_baselines
                ):
                    total += 1
                    finals.append(values[-1])
                    matched_baselines.append(baseline)
                    threshold = self.threshold_factor * baseline
                    hit = next(
                        (
                            r
                            for r, v in zip(rounds, values)
                            if v <= threshold
                        ),
                        None,
                    )
                    if hit is not None:
                        reached += 1
                        reach_rounds.append(hit)
        except ReproError as error:
            # A pairing that *raises* (e.g. non-finite proposals driving
            # an iterative rule past its convergence guard) is a
            # breakdown, not a hole in the league.
            return LeagueRow(
                attack=attack[0],
                defense=defense[0],
                cells=self.cells_per_pair,
                final_error=None,
                baseline_error=None,
                error_ratio=None,
                rounds_to_threshold=None,
                reached_fraction=0.0,
                breakdown=True,
                breakdown_reason=type(error).__name__,
            )
        mean_final = float(np.mean(finals))
        mean_baseline = float(np.mean(matched_baselines))
        ratio = (
            mean_final / mean_baseline
            if math.isfinite(mean_final) and mean_baseline > 0
            else float("inf")
        )
        breakdown = not math.isfinite(mean_final) or (
            math.isfinite(ratio) and ratio > self.breakdown_factor
        ) or not math.isfinite(ratio)
        reason = None
        if breakdown:
            reason = (
                "non-finite error"
                if not math.isfinite(mean_final)
                else f"error {ratio:.3g}x baseline"
            )
        return LeagueRow(
            attack=attack[0],
            defense=defense[0],
            cells=total,
            final_error=_finite_or_none(mean_final),
            baseline_error=_finite_or_none(mean_baseline),
            error_ratio=_finite_or_none(ratio),
            rounds_to_threshold=(
                float(np.mean(reach_rounds)) if reach_rounds else None
            ),
            reached_fraction=reached / total if total else 0.0,
            breakdown=bool(breakdown),
            breakdown_reason=reason,
        )

    def run(self) -> TournamentResult:
        """Execute the full league: every attack × every defense."""
        baselines = self._baselines()
        rows = [
            self._pair_row(attack, defense, baselines)
            for attack in self.attacks
            for defense in self.defenses
        ]
        return TournamentResult(
            rows=tuple(rows),
            attacks=tuple(name for name, _kwargs in self.attacks),
            defenses=tuple(name for name, _kwargs in self.defenses),
            num_workers=self.num_workers,
            num_byzantine=self.num_byzantine,
            num_rounds=self.num_rounds,
            seeds=self.seeds,
            mode=self.mode,
        )
