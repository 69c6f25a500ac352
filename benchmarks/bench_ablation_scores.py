"""E11 — Ablation: score mechanics, tie-breaks and slot placement.

Design-choice checks:
  * the deterministic smallest-id tie-break introduces no worker bias in
    benign operation (selection histogram ~ uniform over honest ids);
  * where the adversary's slots sit (first/last ids) does not change
    Krum's robustness, despite the id-based tie-break;
  * Multi-Krum's selected set is stable in m (nested prefixes).
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import emit, run_once
from repro.attacks.random_noise import GaussianAttack
from repro.core.krum import Krum, MultiKrum, krum_scores
from repro.experiments.builders import build_quadratic_simulation
from repro.experiments.reporting import format_table
from repro.models.quadratic import QuadraticBowl

N, F, DIMENSION = 13, 3, 8


def bench_ablation_selection_histogram_unbiased(benchmark):
    """Without Byzantine workers, every worker should win Krum's
    selection about equally often — the id tie-break must not bias."""
    trials = 4000

    def run():
        rng = np.random.default_rng(0)
        rule = Krum(f=F)
        counts = np.zeros(N, dtype=int)
        for _ in range(trials):
            vectors = rng.standard_normal((N, DIMENSION))
            result = rule.aggregate_detailed(vectors)
            counts[int(result.selected[0])] += 1
        return counts

    counts = run_once(benchmark, run)
    emit(
        format_table(
            ["worker id", "wins", "share%"],
            [[i, int(c), 100 * c / trials] for i, c in enumerate(counts)],
            title=f"Ablation — Krum selection histogram, no attack (n={N})",
        )
    )
    expected = trials / N
    # Chi-square-ish sanity bound: no worker deviates wildly.
    assert counts.min() > expected * 0.6
    assert counts.max() < expected * 1.4


def bench_ablation_slot_placement_invariance(benchmark):
    """Byzantine ids first vs last: final loss must be comparable —
    robustness cannot hinge on the adversary's position in the id
    ordering."""

    def run():
        results = {}
        for placement in ("first", "last"):
            bowl = QuadraticBowl(DIMENSION)
            sim = build_quadratic_simulation(
                bowl,
                aggregator=Krum(f=F),
                num_workers=N,
                num_byzantine=F,
                sigma=0.1,
                attack=GaussianAttack(sigma=100.0),
                byzantine_slots=placement,
                learning_rate=0.2,
                seed=5,
            )
            history = sim.run(200, eval_every=40)
            results[placement] = (
                history.final_loss,
                history.byzantine_selection_rate(),
            )
        return results

    results = run_once(benchmark, run)
    emit(
        format_table(
            ["byzantine slots", "final loss", "byz-sel%"],
            [[k, v[0], 100 * v[1]] for k, v in results.items()],
            title="Ablation — adversary slot placement (Krum, Gaussian attack)",
        )
    )
    for placement, (loss, sel_rate) in results.items():
        assert loss < 0.5, f"placement={placement} failed to converge"
        assert sel_rate < 0.05


def bench_ablation_multikrum_nested_selection(benchmark):
    """Multi-Krum selections are nested in m (same score ranking), so m
    is a pure speed/robustness-slack knob, not a different estimator."""
    trials = 200

    def run():
        rng = np.random.default_rng(2)
        violations = 0
        for _ in range(trials):
            vectors = rng.standard_normal((N, DIMENSION))
            selections = {
                m: set(
                    MultiKrum(f=F, m=m).aggregate_detailed(vectors).selected.tolist()
                )
                for m in (1, 3, 6, 8)
            }
            if not (
                selections[1] <= selections[3] <= selections[6] <= selections[8]
            ):
                violations += 1
        return violations

    violations = run_once(benchmark, run)
    emit(
        format_table(
            ["trials", "nesting violations"],
            [[trials, violations]],
            title="Ablation — Multi-Krum selected sets are nested in m",
        )
    )
    assert violations == 0


def bench_ablation_score_gap_grows_with_attack_distance(benchmark):
    """The score margin between honest and Byzantine proposals grows with
    the attack magnitude — the mechanism behind Krum's filtering."""

    def run():
        rng = np.random.default_rng(3)
        rows = []
        for magnitude in (1.0, 10.0, 100.0, 1000.0):
            margins = []
            for _ in range(100):
                honest = rng.standard_normal((N - F, DIMENSION))
                byzantine = magnitude * np.ones((F, DIMENSION))
                scores = krum_scores(np.vstack([honest, byzantine]), F)
                margins.append(scores[N - F :].min() / max(scores[: N - F].max(), 1e-12))
            rows.append((magnitude, float(np.median(margins))))
        return rows

    rows = run_once(benchmark, run)
    emit(
        format_table(
            ["attack magnitude", "median byz/honest score ratio"],
            [list(r) for r in rows],
            title="Ablation — score margin vs attack distance",
        )
    )
    ratios = [r for _m, r in rows]
    assert all(a < b for a, b in zip(ratios, ratios[1:])), (
        "score margin must grow with attack magnitude"
    )
