"""The benchmark's four workloads, as ``ScenarioGrid`` keyword arguments.

Each workload is one grid the child process hands to
``run_grid(grid, mode="batched", eval_every=10)``.  The seed ``S`` of a
run fixes the inputs: grid seeds are ``S, S + 1, ...`` and the dataset
seed is ``S``.  ``smoke=True`` gives the same grid at about a tenth of
the work, for tests.  Why each workload exists is recorded in
BENCHMARK.json and README.md.

This module imports nothing from ``repro``: the child measures the
package import as part of its set-up time, so the workload table must
be readable before that import happens.
"""

from __future__ import annotations


def _paper_grid(seed: int, smoke: bool) -> dict:
    return dict(
        seeds=(seed, seed + 1),
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
        workload="quadratic",
        workload_kwargs={"dimension": 1000, "sigma": 0.5},
        num_rounds=6 if smoke else 30,
        learning_rate=0.1,
        lr_timescale=100.0,
    )


def _mnist_mlp(seed: int, smoke: bool) -> dict:
    return dict(
        seeds=(seed, seed + 1),
        attacks=(("sign-flip", {"scale": 5.0}),),
        aggregators=(
            ("krum", {}),
            ("average", {}),
            ("coordinate-median", {}),
        ),
        f_values=(0, 3),
        num_workers=15,
        workload="mlp-mnist",
        workload_kwargs={
            "hidden_sizes": (32,),
            "num_train": 512 if smoke else 4096,
            "num_eval": 128 if smoke else 1024,
            "batch_size": 32,
            "data_seed": seed,
        },
        num_rounds=2 if smoke else 10,
        learning_rate=0.05,
        lr_timescale=None,
    )


def _async_tier(seed: int, smoke: bool) -> dict:
    return dict(
        seeds=(seed, seed + 1, seed + 2),
        attacks=(("staleness-gaming", {}), ("lipschitz-mimicry", {})),
        aggregators=(
            ("krum", {}),
            ("kardam", {"inner": "krum"}),
            ("coordinate-median", {}),
            ("kardam", {"inner": "coordinate-median"}),
        ),
        f_values=(3,),
        num_workers=15,
        workload="quadratic",
        workload_kwargs={"dimension": 200, "sigma": 0.5},
        num_rounds=10 if smoke else 60,
        learning_rate=0.1,
        lr_timescale=100.0,
        max_staleness_values=(1, 4),
        delay_schedule="random",
        delay_kwargs={"max_delay": 4},
        num_servers=3,
        byzantine_servers=1,
        server_attack="sign-flip-broadcast",
    )


def _gossip_ring(seed: int, smoke: bool) -> dict:
    return dict(
        seeds=(seed, seed + 1, seed + 2),
        attacks=(("sign-flip", {}),),
        aggregators=(("coordinate-median", {}), ("krum", {})),
        f_values=(2,),
        num_workers=200,
        workload="quadratic",
        workload_kwargs={"dimension": 100, "sigma": 0.5},
        num_rounds=3 if smoke else 20,
        learning_rate=0.1,
        lr_timescale=None,
        topology="ring",
        degree=6,
    )


_GRIDS = {
    "paper-grid": _paper_grid,
    "mnist-mlp": _mnist_mlp,
    "async-tier": _async_tier,
    "gossip-ring": _gossip_ring,
}

WORKLOADS = tuple(_GRIDS)


def grid_kwargs(name: str, seed: int, *, smoke: bool = False) -> dict:
    """The ``ScenarioGrid`` keyword arguments of workload ``name``."""
    return _GRIDS[name](seed, smoke)


def loop_sample_kwargs(name: str, seed: int, *, smoke: bool = False) -> dict:
    """A sub-grid of workload ``name`` re-run by the loop executor.

    Its cells carry the same labels as the matching cells of the full
    grid, so their digests must equal the batched run's bit for bit.
    The sample covers every rule once: 8 cells of ``paper-grid``, 3 of
    ``mnist-mlp``, 4 of ``async-tier`` and 2 of ``gossip-ring``.
    """
    kwargs = grid_kwargs(name, seed, smoke=smoke)
    kwargs["seeds"] = (seed,)
    if name == "paper-grid":
        kwargs.update(attacks=kwargs["attacks"][:1], f_values=(3,))
    elif name == "mnist-mlp":
        kwargs.update(f_values=(3,))
    elif name == "async-tier":
        kwargs.update(attacks=kwargs["attacks"][:1], max_staleness_values=(4,))
    return kwargs
