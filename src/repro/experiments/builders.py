"""Task builders: the learning problem of one cell, and the classic
one-call simulation builders assembled from it.

A :class:`Task` is what a cell trains on before any cast, rule or
schedule is chosen: one gradient estimator per honest worker, the
shared ``x_0``, the exact-gradient oracle and the evaluator.
:func:`quadratic_task` and :func:`dataset_task` build the two kinds the
paper uses; the engine's workloads return them from ``task`` and
:func:`build_quadratic_simulation` / :func:`build_dataset_simulation`
wrap them in a :class:`~repro.distributed.TrainingSimulation`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.attacks.base import Attack
from repro.core.aggregator import Aggregator
from repro.data.dataset import Dataset
from repro.data.partition import (
    PARTITION_PROTOCOLS,
    dirichlet_partition,
    iid_partition,
    label_shard_partition,
)
from repro.distributed.delays import DelaySchedule
from repro.distributed.schedules import (
    ConstantSchedule,
    InverseTimeSchedule,
    LearningRateSchedule,
)
from repro.distributed.simulator import Evaluator, TrainingSimulation
from repro.exceptions import ConfigurationError
from repro.gradients.base import GradientEstimator
from repro.gradients.minibatch import MinibatchEstimator
from repro.models.base import ClassifierMixin, Model
from repro.models.quadratic import QuadraticBowl
from repro.servers.attacks import ServerAttack
from repro.utils.rng import SeedLike, as_generator

__all__ = [
    "Task",
    "quadratic_task",
    "dataset_task",
    "learning_rate_schedule",
    "quadratic_evaluator",
    "model_evaluator",
    "build_quadratic_simulation",
    "build_dataset_simulation",
]


@dataclass(frozen=True)
class Task:
    """The learning problem of one cell.

    ``honest_estimators`` holds one gradient estimator per honest worker
    (or gossip node), ``initial_params`` the shared ``x_0``,
    ``true_gradient_fn`` the exact-gradient oracle exposed to omniscient
    attacks and ``evaluate`` the evaluator.  The field names are the
    keyword arguments :class:`~repro.distributed.TrainingSimulation` and
    :class:`~repro.topology.GossipSimulation` share, so
    ``TrainingSimulation(**task.simulation_kwargs(), ...)`` wires a task
    into either engine.
    """

    honest_estimators: Sequence[GradientEstimator]
    initial_params: np.ndarray
    true_gradient_fn: Callable[[np.ndarray], np.ndarray] | None = None
    evaluate: Evaluator | None = None

    def simulation_kwargs(self) -> dict[str, object]:
        return {
            "honest_estimators": self.honest_estimators,
            "initial_params": self.initial_params,
            "true_gradient_fn": self.true_gradient_fn,
            "evaluate": self.evaluate,
        }


def quadratic_evaluator(bowl: QuadraticBowl) -> Evaluator:
    """Evaluator reporting exact cost, gradient norm and optimum distance."""

    def evaluate(params: np.ndarray) -> dict[str, float]:
        return {
            "loss": bowl.value(params),
            "grad_norm": float(np.linalg.norm(bowl.exact_gradient(params))),
            "dist_to_opt": bowl.distance_to_optimum(params),
        }

    return evaluate


def model_evaluator(model: Model, dataset: Dataset) -> Evaluator:
    """Evaluator reporting held-out loss (and accuracy for classifiers)."""

    def evaluate(params: np.ndarray) -> dict[str, float]:
        metrics = {"loss": model.loss(params, dataset.inputs, dataset.targets)}
        if isinstance(model, ClassifierMixin):
            metrics["accuracy"] = model.accuracy(
                params, dataset.inputs, dataset.targets
            )
        return metrics

    return evaluate


def learning_rate_schedule(
    learning_rate: float, lr_timescale: float | None
) -> LearningRateSchedule:
    """γ_t = learning_rate / (1 + t / lr_timescale), or constant when
    ``lr_timescale`` is ``None``."""
    if lr_timescale is None:
        return ConstantSchedule(learning_rate)
    return InverseTimeSchedule(learning_rate, lr_timescale)


def _num_honest(num_workers: int, num_byzantine: int) -> int:
    num_honest = num_workers - num_byzantine
    if num_honest < 1:
        raise ConfigurationError(
            f"need at least one honest worker: n={num_workers}, f={num_byzantine}"
        )
    return num_honest


def quadratic_task(
    bowl: QuadraticBowl,
    num_honest: int,
    *,
    sigma: float,
    seed: SeedLike = 0,
    initial_params: np.ndarray | None = None,
) -> Task:
    """The Prop. 4.3 setting: every honest worker uses the Gaussian
    oracle ``∇Q(x) + σ N(0, I)``, and the exact gradient is the oracle
    and feeds the ``grad_norm``/``dist_to_opt`` evaluation.  ``x_0`` is
    drawn from ``seed`` unless ``initial_params`` pins it."""
    initial = (
        bowl.init_params(as_generator(seed))
        if initial_params is None
        else np.asarray(initial_params)
    )
    return Task(
        honest_estimators=[bowl.as_estimator(sigma) for _ in range(num_honest)],
        initial_params=initial,
        true_gradient_fn=bowl.exact_gradient,
        evaluate=quadratic_evaluator(bowl),
    )


def dataset_task(
    model: Model,
    train: Dataset,
    num_honest: int,
    *,
    batch_size: int = 32,
    partition: str = "iid",
    dirichlet_alpha: float = 0.5,
    eval_dataset: Dataset | None = None,
    seed: SeedLike = 0,
) -> Task:
    """The full paper's setting: each honest worker holds a disjoint
    shard of ``train`` and estimates gradients on uniform mini-batches
    of it; the oracle is the full-train-set gradient and the evaluator
    reports loss (and accuracy) on ``eval_dataset`` (default ``train``).

    ``partition`` selects the sharding protocol: ``"iid"`` (the paper's
    i.i.d. assumption), ``"label-shard"`` (each worker sees only a few
    classes) or ``"dirichlet"`` (skew controlled by ``dirichlet_alpha``).
    The non-i.i.d. options exist for the ablation the introduction
    motivates — workers whose honest gradients *look* Byzantine because
    their data is biased.  ``seed`` drives the sharding and ``x_0``.
    """
    if partition == "iid":
        shards = iid_partition(len(train), num_honest, seed=seed)
    elif partition == "label-shard":
        shards = label_shard_partition(train.targets, num_honest, seed=seed)
    elif partition == "dirichlet":
        shards = dirichlet_partition(
            train.targets,
            num_honest,
            alpha=dirichlet_alpha,
            min_per_worker=max(1, batch_size // 4),
            seed=seed,
        )
    else:
        raise ConfigurationError(
            f"partition must be one of {PARTITION_PROTOCOLS}, "
            f"got {partition!r}"
        )
    estimators = [
        MinibatchEstimator(
            model,
            train.inputs[shard],
            train.targets[shard],
            batch_size=batch_size,
        )
        for shard in shards
    ]
    initial = model.init_params(as_generator(seed))

    def full_gradient(params: np.ndarray) -> np.ndarray:
        return model.gradient(params, train.inputs, train.targets)

    return Task(
        honest_estimators=estimators,
        initial_params=initial,
        true_gradient_fn=full_gradient,
        evaluate=model_evaluator(
            model, eval_dataset if eval_dataset is not None else train
        ),
    )


def build_quadratic_simulation(
    bowl: QuadraticBowl,
    *,
    aggregator: Aggregator,
    num_workers: int,
    num_byzantine: int,
    sigma: float,
    attack: Attack | None = None,
    learning_rate: float = 0.1,
    lr_timescale: float | None = 100.0,
    initial_params: np.ndarray | None = None,
    byzantine_slots: str | list[int] = "last",
    max_staleness: int = 0,
    delay_schedule: DelaySchedule | str | None = None,
    num_servers: int = 1,
    byzantine_servers: int = 0,
    num_shards: int = 1,
    server_attack: ServerAttack | str | None = None,
    halt_on_nonfinite: bool = False,
    seed: SeedLike = 0,
) -> TrainingSimulation:
    """Distributed SGD on an analytic quadratic bowl (Prop. 4.3 setting):
    the :func:`quadratic_task` under the given cast, rule and schedule.
    ``max_staleness``/``delay_schedule`` select the bounded-staleness
    round model; ``halt_on_nonfinite`` arms the server's non-finite
    guard.
    """
    task = quadratic_task(
        bowl,
        _num_honest(num_workers, num_byzantine),
        sigma=sigma,
        seed=seed,
        initial_params=initial_params,
    )
    return TrainingSimulation(
        aggregator=aggregator,
        schedule=learning_rate_schedule(learning_rate, lr_timescale),
        num_byzantine=num_byzantine,
        attack=attack,
        byzantine_slots=byzantine_slots,
        max_staleness=max_staleness,
        delay_schedule=delay_schedule,
        num_servers=num_servers,
        byzantine_servers=byzantine_servers,
        num_shards=num_shards,
        server_attack=server_attack,
        halt_on_nonfinite=halt_on_nonfinite,
        seed=seed,
        **task.simulation_kwargs(),
    )


def build_dataset_simulation(
    model: Model,
    train: Dataset,
    *,
    aggregator: Aggregator,
    num_workers: int,
    num_byzantine: int,
    attack: Attack | None = None,
    batch_size: int = 32,
    learning_rate: float = 0.1,
    lr_timescale: float | None = None,
    eval_dataset: Dataset | None = None,
    byzantine_slots: str | list[int] = "last",
    partition: str = "iid",
    dirichlet_alpha: float = 0.5,
    max_staleness: int = 0,
    delay_schedule: DelaySchedule | str | None = None,
    num_servers: int = 1,
    byzantine_servers: int = 0,
    num_shards: int = 1,
    server_attack: ServerAttack | str | None = None,
    halt_on_nonfinite: bool = False,
    seed: SeedLike = 0,
) -> TrainingSimulation:
    """Distributed SGD on a dataset sharded across honest workers: the
    :func:`dataset_task` under the given cast, rule and schedule."""
    task = dataset_task(
        model,
        train,
        _num_honest(num_workers, num_byzantine),
        batch_size=batch_size,
        partition=partition,
        dirichlet_alpha=dirichlet_alpha,
        eval_dataset=eval_dataset,
        seed=seed,
    )
    return TrainingSimulation(
        aggregator=aggregator,
        schedule=learning_rate_schedule(learning_rate, lr_timescale),
        num_byzantine=num_byzantine,
        attack=attack,
        byzantine_slots=byzantine_slots,
        max_staleness=max_staleness,
        delay_schedule=delay_schedule,
        num_servers=num_servers,
        byzantine_servers=byzantine_servers,
        num_shards=num_shards,
        server_attack=server_attack,
        halt_on_nonfinite=halt_on_nonfinite,
        seed=seed,
        **task.simulation_kwargs(),
    )
