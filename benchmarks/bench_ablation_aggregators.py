"""E10 — Ablation: Krum vs the robust-statistics family under every attack.

The design-choice question: Krum *selects* a proposed vector via
distance filtering; medians/trimmed means *synthesize* a new vector from
coordinate statistics.  This bench measures all rules against all
attacks in the static resilience harness and reports which survive where
— contextualizing why the paper's selection approach matters (e.g. the
selected vector is always a real gradient someone computed, and the
little-is-enough attack that nudges coordinate statistics).
"""

from __future__ import annotations

from benchmarks.conftest import emit, run_once
from repro.analysis.resilience import estimate_resilience
from repro.attacks.collusion import CollusionAttack
from repro.attacks.modern import LittleIsEnoughAttack
from repro.attacks.omniscient import OmniscientAttack
from repro.attacks.random_noise import GaussianAttack
from repro.baselines.average import Average
from repro.baselines.distance_based import ClosestToAll
from repro.baselines.majority import MinimalDiameterSubset
from repro.baselines.medians import (
    CoordinateWiseMedian,
    GeometricMedian,
    TrimmedMean,
)
from repro.core.bulyan import Bulyan
from repro.core.krum import Krum, MultiKrum
from repro.experiments.reporting import format_table

N, F = 13, 3
DIMENSION = 4
SIGMA = 0.02
TRIALS = 300


def _rules():
    return {
        "krum": Krum(f=F),
        "multi-krum m=6": MultiKrum(f=F, m=6),
        "average": Average(),
        "closest-to-all": ClosestToAll(),
        "minimal-diameter": MinimalDiameterSubset(f=F),
        "coord-median": CoordinateWiseMedian(),
        "trimmed-mean": TrimmedMean(f=F),
        "geometric-median": GeometricMedian(),
    }


def _attacks():
    return {
        "gaussian": GaussianAttack(sigma=200.0),
        "omniscient": OmniscientAttack(scale=10.0),
        "collusion": CollusionAttack(decoy_distance=100.0, against_gradient=True),
        "little-is-enough": LittleIsEnoughAttack(z=1.0),
    }


def bench_ablation_rules_vs_attacks(benchmark):
    def run():
        table = {}
        for rule_name, rule in _rules().items():
            for attack_name, attack in _attacks().items():
                report = estimate_resilience(
                    rule,
                    attack,
                    n=N,
                    f=F,
                    dimension=DIMENSION,
                    sigma=SIGMA,
                    trials=TRIALS,
                    seed=hash((rule_name, attack_name)) % 2**31,
                )
                table[(rule_name, attack_name)] = report
        return table

    table = run_once(benchmark, run)
    attack_names = list(_attacks())
    emit(
        format_table(
            ["rule", *attack_names],
            [
                [
                    rule_name,
                    *[
                        "ok" if table[(rule_name, a)].satisfied else "FAIL"
                        for a in attack_names
                    ],
                ]
                for rule_name in _rules()
            ],
            title=(
                f"Ablation — condition (i) of Def. 3.2 per rule × attack "
                f"(n={N}, f={F}, σ={SIGMA})"
            ),
        )
    )
    # The paper's rule and the robust family survive the loud attacks.
    for rule_name in ("krum", "multi-krum m=6", "minimal-diameter",
                      "coord-median", "trimmed-mean", "geometric-median"):
        for attack_name in ("gaussian", "omniscient"):
            assert table[(rule_name, attack_name)].satisfied, (
                f"{rule_name} failed under {attack_name}"
            )
    # The linear rule fails the direction-reversing attack (Lemma 3.1).
    assert not table[("average", "omniscient")].satisfied
    # The Figure 2 rule fails under collusion; Krum does not.
    assert not table[("closest-to-all", "collusion")].satisfied
    assert table[("closest-to-all", "collusion")].byzantine_selection_rate > 0.9
    assert table[("krum", "collusion")].satisfied


def bench_ablation_byzantine_selection_rates(benchmark):
    """Selection-based rules only: how often does an adversarial
    proposal get picked?  (Statistical rules never 'select'.)"""

    def run():
        rows = []
        for rule_name in ("krum", "multi-krum m=6", "closest-to-all"):
            rule = _rules()[rule_name]
            for attack_name, attack in _attacks().items():
                report = estimate_resilience(
                    rule, attack, n=N, f=F, dimension=DIMENSION,
                    sigma=SIGMA, trials=TRIALS,
                    seed=hash((rule_name, attack_name, 1)) % 2**31,
                )
                rows.append(
                    (rule_name, attack_name,
                     100 * report.byzantine_selection_rate)
                )
        return rows

    rows = run_once(benchmark, run)
    emit(
        format_table(
            ["rule", "attack", "byz-sel%"],
            [list(r) for r in rows],
            title="Ablation — Byzantine selection rate (selection rules)",
        )
    )
    rates = {(r, a): v for r, a, v in rows}
    assert rates[("krum", "gaussian")] < 2.0
    assert rates[("krum", "collusion")] < 2.0
    assert rates[("closest-to-all", "collusion")] > 95.0


def bench_ablation_bulyan_stealth_extension(benchmark):
    """Extension (authors' ICML'18 follow-up): under the coordinate-
    planting stealth attack that Krum's whole-vector selection admits,
    Bulyan's trimmed aggregation caps the planted coordinate's error.

    The attack copies the honest mean (unbeatable Krum score) and plants
    +3 honest-std on one coordinate."""
    import numpy as np

    n, f, d = 15, 3, 20
    trials = 100

    def run():
        krum_rule, bulyan_rule = Krum(f=f), Bulyan(f=f)
        krum_errors, bulyan_errors = [], []
        for trial in range(trials):
            rng = np.random.default_rng(trial)
            honest = rng.standard_normal((n - f, d))
            crafted = np.tile(honest.mean(axis=0), (f, 1))
            crafted[:, 0] += 3.0 * honest[:, 0].std()
            stack = np.vstack([honest, crafted])
            krum_errors.append(abs(float(krum_rule.aggregate(stack)[0])))
            bulyan_errors.append(abs(float(bulyan_rule.aggregate(stack)[0])))
        return float(np.mean(krum_errors)), float(np.mean(bulyan_errors))

    krum_error, bulyan_error = run_once(benchmark, run)
    emit(
        format_table(
            ["rule", "mean |planted coordinate error|"],
            [["krum", krum_error], ["bulyan", bulyan_error]],
            title=(
                f"Extension — coordinate-planting stealth attack "
                f"(n={n}, f={f}, d={d}, {trials} trials)"
            ),
        )
    )
    assert bulyan_error < krum_error, (
        "Bulyan should cap the planted coordinate below Krum's error"
    )
