"""Grids the tier-1 differential tests and the engine bench share.

Each builder takes a ``scale``: ``"small"`` is the size tier-1 runs
through both executors, ``"full"`` the size
``benchmarks/bench_engine_grid.py`` times.  The two scales differ only
in seeds, dimensions, dataset sizes and rounds, so a check that holds
at one scale is the same check at the other.
"""

from __future__ import annotations

from repro.engine import ScenarioGrid

__all__ = ["KARDAM_PAIRS", "paper_grid", "workload_grids"]

# Each rule bare and behind the kardam staleness filter: on an async
# grid exactly the kardam half of the cells aggregates through the loop
# fallback, so the batched run's ``native_fraction`` is 0.5.
KARDAM_PAIRS = (
    ("krum", {}),
    ("kardam", {"inner": "krum"}),
    ("coordinate-median", {}),
    ("kardam", {"inner": "coordinate-median"}),
    ("trimmed-mean", {}),
    ("kardam", {"inner": "trimmed-mean"}),
)


def _is_full(scale: str) -> bool:
    assert scale in ("small", "full"), scale
    return scale == "full"


def paper_grid(scale: str) -> ScenarioGrid:
    """The paper's rule × attack × f grid: all eight rules, two attacks,
    f ∈ {3, 4} on n = 20 (Bulyan needs n ≥ 4f + 3).  Full scale is the
    128-cell grid at d = 1000 over 100 rounds, the size of the paper's
    figure grids."""
    full = _is_full(scale)
    return ScenarioGrid(
        seeds=(0, 1, 2, 3) if full else (0,),
        attacks=(
            ("gaussian", {"sigma": 200.0}),
            ("omniscient", {"scale": 10.0}),
        ),
        aggregators=(
            ("krum", {}),
            ("multi-krum", {"m": 5}),
            ("average", {}),
            ("closest-to-all", {}),
            ("coordinate-median", {}),
            ("trimmed-mean", {}),
            ("bulyan", {}),
            ("geometric-median", {}),
        ),
        f_values=(3, 4),
        num_workers=20,
        workload_kwargs={"dimension": 1000 if full else 50, "sigma": 0.5},
        num_rounds=100 if full else 10,
        learning_rate=0.1,
        lr_timescale=100.0,
    )


def workload_grids(scale: str) -> dict[str, ScenarioGrid]:
    """One grid per registered workload plus a mixed-dimension grid."""
    full = _is_full(scale)
    quadratic = {"dimension": 1000 if full else 100, "sigma": 0.5}
    spambase = {
        "num_train": 1024 if full else 128,
        "num_eval": 256 if full else 64,
        "batch_size": 16,
    }
    mnist = {
        "num_train": 512 if full else 96,
        "num_eval": 128 if full else 48,
        "batch_size": 16,
    }
    rounds = (60, 60, 40, 30, 30) if full else (8, 8, 6, 4, 6)
    axes = (
        {"workload_kwargs": quadratic},
        {"workload": "logistic-spambase", "workload_kwargs": spambase},
        {"workload": "softmax-mnist", "workload_kwargs": mnist},
        {
            "workload": "mlp-mnist",
            "workload_kwargs": dict(mnist, hidden_sizes=(32,) if full else (16,)),
        },
        {
            "workloads": (
                ("quadratic", quadratic),
                ("logistic-spambase", spambase),
                ("softmax-mnist", mnist),
            )
        },
    )
    names = ("quadratic", "logistic-spambase", "softmax-mnist", "mlp-mnist", "mixed")
    return {
        name: ScenarioGrid(
            seeds=(0, 1) if full else (0,),
            attacks=(("sign-flip", {"scale": 5.0}),),
            aggregators=(
                ("krum", {}),
                ("average", {}),
                ("coordinate-median", {}),
            ),
            f_values=(0, 3),
            num_workers=15,
            num_rounds=num_rounds,
            learning_rate=0.05,
            lr_timescale=None,
            **axis,
        )
        for name, num_rounds, axis in zip(names, rounds, axes, strict=True)
    }
