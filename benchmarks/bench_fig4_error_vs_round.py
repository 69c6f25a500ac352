"""E6 — Full paper Fig. 4: error vs round at 33 % Byzantine workers.

The full paper (arXiv:1703.02757) trains an MLP on MNIST under the
omniscient attack and a shallow model on spambase under the Gaussian
attack, with 33 % Byzantine workers: averaging stalls or diverges, Krum
converges close to the attack-free baseline.  This bench reproduces both
panels on the substituted datasets (README.md, "Workloads").

Each panel's four arms run as ONE batched round loop through the
scenario-grid engine (:class:`repro.engine.BatchedSimulation`): the
engine stacks the arms' proposal matrices and aggregates them through
the batched kernels, which are bit-for-bit identical to running the
arms one at a time — so the reproduced figures are unchanged, only
faster.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit, run_once
from repro.attacks.omniscient import OmniscientAttack
from repro.attacks.random_noise import GaussianAttack
from repro.baselines.average import Average
from repro.core.krum import Krum
from repro.data.mnist_like import make_mnist_like
from repro.data.spambase_like import make_spambase_like
from repro.engine import BatchedSimulation
from repro.experiments.builders import build_dataset_simulation
from repro.experiments.reporting import format_series, format_table
from repro.models.logistic import LogisticRegressionModel
from repro.models.mlp import MLPClassifier

NUM_WORKERS = 20
F = 6  # ~33 % of 20; satisfies 2f + 2 < n
ROUNDS = 300
EVAL_EVERY = 25


def _run_panel(arm_specs, build_sim):
    """Build one simulation per arm and run them as one batched loop."""
    sims = {
        label: build_sim(aggregator, f, attack)
        for label, (aggregator, f, attack) in arm_specs.items()
    }
    histories = BatchedSimulation(list(sims.values())).run(
        ROUNDS, eval_every=EVAL_EVERY
    )
    return dict(zip(sims.keys(), histories))


def _mnist_panel():
    train = make_mnist_like(1500, seed=0)
    test = make_mnist_like(400, seed=1)

    def build_sim(aggregator, f, attack):
        model = MLPClassifier(784, 10, hidden_sizes=(32,), init_seed=0)
        return build_dataset_simulation(
            model,
            train,
            aggregator=aggregator,
            num_workers=NUM_WORKERS,
            num_byzantine=f,
            attack=attack,
            batch_size=32,
            learning_rate=0.3,
            eval_dataset=test,
            seed=7,
        )

    return _run_panel(
        {
            "average f=0": (Average(), 0, None),
            "krum f=0": (Krum(f=F, strict=False), 0, None),
            "average 33% omniscient": (Average(), F, OmniscientAttack(scale=10.0)),
            "krum 33% omniscient": (Krum(f=F), F, OmniscientAttack(scale=10.0)),
        },
        build_sim,
    )


def _spambase_panel():
    train = make_spambase_like(3000, seed=0)
    test = make_spambase_like(800, seed=1)

    def build_sim(aggregator, f, attack):
        model = LogisticRegressionModel(57)
        return build_dataset_simulation(
            model,
            train,
            aggregator=aggregator,
            num_workers=NUM_WORKERS,
            num_byzantine=f,
            attack=attack,
            batch_size=32,
            learning_rate=0.05,
            eval_dataset=test,
            seed=7,
        )

    return _run_panel(
        {
            "average f=0": (Average(), 0, None),
            "krum f=0": (Krum(f=F, strict=False), 0, None),
            "average 33% gaussian": (Average(), F, GaussianAttack(sigma=200.0)),
            "krum 33% gaussian": (Krum(f=F), F, GaussianAttack(sigma=200.0)),
        },
        build_sim,
    )


def _emit_panel(title, arms):
    rounds, _ = next(iter(arms.values())).series("accuracy")
    emit(
        format_series(
            title,
            rounds,
            {
                label: 1.0 - history.series("accuracy")[1]
                for label, history in arms.items()
            },
        )
    )
    emit(
        format_table(
            ["arm", "final error", "final loss", "byz-sel%"],
            [
                [
                    label,
                    1.0 - history.final_accuracy,
                    history.final_loss,
                    100 * history.byzantine_selection_rate(),
                ]
                for label, history in arms.items()
            ],
            title=title + " — summary",
        )
    )


# The averaging arm must diverge (the figure's point), and the MLP's loss
# overflows (then turns NaN) on the way there.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def bench_fig4_mnist_mlp_omniscient(benchmark):
    arms = run_once(benchmark, _mnist_panel)
    _emit_panel("Fig 4 (mnist-like panel) — test error vs round", arms)

    err = {label: 1.0 - h.final_accuracy for label, h in arms.items()}
    # Shape claims of the figure: averaging collapses under the attack;
    # Krum converges close to its attack-free baseline.
    assert err["average 33% omniscient"] > 0.5, "averaging must collapse"
    assert err["krum 33% omniscient"] < 0.15, "Krum must keep learning"
    assert err["average f=0"] < 0.1, "attack-free averaging sanity"
    assert err["krum 33% omniscient"] < err["krum f=0"] + 0.1, (
        "Krum under attack should track its attack-free baseline"
    )
    assert arms["krum 33% omniscient"].byzantine_selection_rate() < 0.1


def bench_fig4_spambase_logistic_gaussian(benchmark):
    arms = run_once(benchmark, _spambase_panel)
    _emit_panel("Fig 4 (spambase-like panel) — test error vs round", arms)

    err = {label: 1.0 - h.final_accuracy for label, h in arms.items()}
    assert err["average 33% gaussian"] > err["krum 33% gaussian"] + 0.05, (
        "Krum must beat averaging under the Gaussian attack"
    )
    assert err["krum 33% gaussian"] < 0.25
    assert err["krum 33% gaussian"] < err["krum f=0"] + 0.05
