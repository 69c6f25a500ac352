"""The workload registry — what a grid cell *trains on*.

A :class:`Workload` owns everything about the learning task of a grid
cell: the model, the data (and how it is partitioned across honest
workers), the gradient estimator and the evaluator.  It knows its
parameter dimension up front and materializes one cell's
:class:`~repro.distributed.simulator.TrainingSimulation` on demand, so
:class:`~repro.engine.grid.ScenarioGrid` stays a declarative spec:
a cell names its workload ("quadratic", "mlp-mnist", ...) plus keyword
arguments, exactly like it names its aggregator and attack.

The workloads are a :class:`~repro.utils.registry.Registry`
(``register_workload`` / ``available_workloads`` / ``make_workload``).

Built-in workloads:

* ``quadratic`` — the paper's Section-4 analytic setting: a quadratic
  bowl with the Gaussian gradient oracle (the engine's historical only
  workload, and still the default).
* ``logistic-spambase`` — binary logistic regression on the
  spambase-shaped dataset (the full paper's spam-filtering task).
* ``softmax-mnist`` — linear softmax regression on the procedural
  digit dataset.
* ``mlp-mnist`` — the full paper's MNIST workload: a dense network on
  the procedural digits, trained by distributed SGD.

The dataset-backed workloads materialize lazily: constructing one (as
``ScenarioGrid.validate()`` does to check names and kwargs) costs
nothing; data generation happens on the first ``build``/``dimension``
access and is cached, so every cell of a grid shares one dataset and
one model object.
"""

from __future__ import annotations

import inspect
import math
from abc import ABC, abstractmethod
from collections.abc import Mapping, Sequence

from repro.attacks.base import Attack
from repro.core.aggregator import Aggregator
from repro.data.dataset import Dataset
from repro.data.mnist_like import IMAGE_SIDE, make_mnist_like
from repro.data.partition import PARTITION_PROTOCOLS
from repro.data.spambase_like import NUM_FEATURES, make_spambase_like
from repro.distributed.delays import DelaySchedule
from repro.distributed.simulator import TrainingSimulation
from repro.exceptions import ConfigurationError
from repro.experiments.builders import (
    build_dataset_simulation,
    build_quadratic_simulation,
)
from repro.models.base import Model
from repro.models.logistic import LogisticRegressionModel
from repro.models.mlp import MLPClassifier
from repro.models.quadratic import QuadraticBowl
from repro.models.softmax import SoftmaxRegressionModel
from repro.servers.attacks import ServerAttack
from repro.utils.registry import Registry

__all__ = [
    "Workload",
    "QuadraticWorkload",
    "DatasetWorkload",
    "LogisticSpambaseWorkload",
    "SoftmaxMnistWorkload",
    "MlpMnistWorkload",
    "WORKLOADS",
    "register_workload",
    "available_workloads",
    "workload_factory",
    "make_workload",
    "workload_key",
    "QUADRATIC_DEFAULTS",
]

class Workload(ABC):
    """A learning task a grid cell can train on.

    Instances are cheap to construct and shareable across cells: one
    workload object materializes every cell of a grid that names it
    (with the same kwargs), so expensive state — datasets, models —
    is built once and reused.  Per-cell randomness (parameter init,
    data partitioning, worker RNG streams) comes from the cell's
    ``seed``, threaded through :meth:`build`.
    """

    #: Registry name; subclasses set this as a class attribute.
    name: str = ""

    @property
    @abstractmethod
    def dimension(self) -> int:
        """The flat parameter dimension d every cell of this workload
        trains in (the batched executor groups cells by it)."""

    @abstractmethod
    def build(
        self,
        *,
        aggregator: Aggregator,
        num_workers: int,
        num_byzantine: int,
        attack: Attack | None,
        learning_rate: float,
        lr_timescale: float | None,
        byzantine_slots: str | Sequence[int],
        seed: int,
        max_staleness: int = 0,
        delay_schedule: DelaySchedule | str | None = None,
        num_servers: int = 1,
        byzantine_servers: int = 0,
        num_shards: int = 1,
        server_attack: ServerAttack | str | None = None,
        halt_on_nonfinite: bool = False,
    ) -> TrainingSimulation:
        """Materialize one cell's simulation on this workload.

        ``max_staleness``/``delay_schedule`` select the asynchronous
        round model (both default to the synchronous loop),
        ``num_servers``/``byzantine_servers``/``num_shards``/
        ``server_attack`` configure the parameter-server tier (defaults
        are the paper's single reliable server) and
        ``halt_on_nonfinite`` arms the server's non-finite guard; all of
        them thread straight through to
        :class:`~repro.distributed.simulator.TrainingSimulation`.
        """


class QuadraticWorkload(Workload):
    """The paper's analytic setting: quadratic bowl + Gaussian oracle.

    Honest workers share the exact gradient ``∇Q`` and add i.i.d.
    Gaussian noise of scale ``sigma`` — the Section-4 estimator model.
    This is the engine's fast-path workload: the batched executor
    evaluates the shared gradient once per cell-round.
    """

    name = "quadratic"

    def __init__(
        self,
        dimension: int = 10,
        sigma: float = 0.1,
        curvature: float = 1.0,
    ):
        if int(dimension) < 1:
            raise ConfigurationError(
                f"dimension must be >= 1, got {dimension}"
            )
        if not math.isfinite(sigma) or sigma < 0:
            raise ConfigurationError(
                f"sigma must be finite and >= 0, got {sigma}"
            )
        if not math.isfinite(curvature) or curvature <= 0:
            raise ConfigurationError(
                f"curvature must be positive and finite, got {curvature}"
            )
        self._dimension = int(dimension)
        self.sigma = float(sigma)
        self.curvature = float(curvature)
        self._bowl: QuadraticBowl | None = None

    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def bowl(self) -> QuadraticBowl:
        """The shared cost object (lazily built once for every cell of
        the grid; the isotropic curvature stays a scalar, so it costs
        O(d) memory and work per gradient)."""
        if self._bowl is None:
            self._bowl = QuadraticBowl(
                self._dimension, curvature=self.curvature
            )
        return self._bowl

    def build(
        self,
        *,
        aggregator,
        num_workers,
        num_byzantine,
        attack,
        learning_rate,
        lr_timescale,
        byzantine_slots,
        seed,
        max_staleness=0,
        delay_schedule=None,
        num_servers=1,
        byzantine_servers=0,
        num_shards=1,
        server_attack=None,
        halt_on_nonfinite=False,
    ) -> TrainingSimulation:
        return build_quadratic_simulation(
            self.bowl,
            aggregator=aggregator,
            num_workers=num_workers,
            num_byzantine=num_byzantine,
            sigma=self.sigma,
            attack=attack,
            learning_rate=learning_rate,
            lr_timescale=lr_timescale,
            byzantine_slots=byzantine_slots,
            max_staleness=max_staleness,
            delay_schedule=delay_schedule,
            num_servers=num_servers,
            byzantine_servers=byzantine_servers,
            num_shards=num_shards,
            server_attack=server_attack,
            halt_on_nonfinite=halt_on_nonfinite,
            seed=seed,
        )


#: The quadratic workload's default knobs — shared with the grid's
#: deprecation shim (old scalar fields) and its label encoding.
#: Derived from the factory signature so it cannot drift from
#: ``QuadraticWorkload.__init__``.
QUADRATIC_DEFAULTS: dict[str, object] = {
    name: parameter.default
    for name, parameter in inspect.signature(
        QuadraticWorkload.__init__
    ).parameters.items()
    if parameter.default is not inspect.Parameter.empty
}


class DatasetWorkload(Workload):
    """Shared machinery of the dataset-backed workloads.

    Honest workers hold disjoint shards of a train set (``partition``
    selects the protocol) and estimate gradients on uniform mini-batches
    of ``batch_size``; the attack's omniscient oracle is the
    full-train-set gradient and the evaluator reports held-out loss and
    accuracy.  ``data_seed`` controls the generated data only — the
    cell's ``seed`` controls partitioning, parameter init and worker
    streams, so sweeping seeds re-shards the *same* dataset.
    """

    def __init__(
        self,
        *,
        num_train: int,
        num_eval: int,
        batch_size: int,
        partition: str,
        dirichlet_alpha: float,
        data_seed: int,
    ):
        if num_train < 1 or num_eval < 1:
            raise ConfigurationError(
                f"need num_train >= 1 and num_eval >= 1, got "
                f"({num_train}, {num_eval})"
            )
        if batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        if partition not in PARTITION_PROTOCOLS:
            raise ConfigurationError(
                f"partition must be one of {PARTITION_PROTOCOLS}, "
                f"got {partition!r}"
            )
        if dirichlet_alpha <= 0:
            raise ConfigurationError(
                f"dirichlet_alpha must be positive, got {dirichlet_alpha}"
            )
        self.num_train = int(num_train)
        self.num_eval = int(num_eval)
        self.batch_size = int(batch_size)
        self.partition = partition
        self.dirichlet_alpha = float(dirichlet_alpha)
        self.data_seed = int(data_seed)
        self._model: Model | None = None
        self._data: tuple[Dataset, Dataset] | None = None

    @abstractmethod
    def _build_model(self) -> Model:
        """Construct the (shareable, conceptually stateless) model."""

    @abstractmethod
    def _build_data(self) -> tuple[Dataset, Dataset]:
        """Generate the (train, eval) datasets from ``data_seed``."""

    @property
    def model(self) -> Model:
        if self._model is None:
            self._model = self._build_model()
        return self._model

    @property
    def datasets(self) -> tuple[Dataset, Dataset]:
        if self._data is None:
            self._data = self._build_data()
        return self._data

    @property
    def dimension(self) -> int:
        return self.model.dimension

    def build(
        self,
        *,
        aggregator,
        num_workers,
        num_byzantine,
        attack,
        learning_rate,
        lr_timescale,
        byzantine_slots,
        seed,
        max_staleness=0,
        delay_schedule=None,
        num_servers=1,
        byzantine_servers=0,
        num_shards=1,
        server_attack=None,
        halt_on_nonfinite=False,
    ) -> TrainingSimulation:
        train, evaluation = self.datasets
        return build_dataset_simulation(
            self.model,
            train,
            aggregator=aggregator,
            num_workers=num_workers,
            num_byzantine=num_byzantine,
            attack=attack,
            batch_size=self.batch_size,
            learning_rate=learning_rate,
            lr_timescale=lr_timescale,
            eval_dataset=evaluation,
            byzantine_slots=byzantine_slots,
            partition=self.partition,
            dirichlet_alpha=self.dirichlet_alpha,
            max_staleness=max_staleness,
            delay_schedule=delay_schedule,
            num_servers=num_servers,
            byzantine_servers=byzantine_servers,
            num_shards=num_shards,
            server_attack=server_attack,
            halt_on_nonfinite=halt_on_nonfinite,
            seed=seed,
        )


class LogisticSpambaseWorkload(DatasetWorkload):
    """Binary logistic regression on the spambase-shaped dataset."""

    name = "logistic-spambase"

    def __init__(
        self,
        num_train: int = 512,
        num_eval: int = 256,
        batch_size: int = 32,
        partition: str = "iid",
        dirichlet_alpha: float = 0.5,
        l2: float = 0.0,
        separation: float = 1.0,
        data_seed: int = 0,
    ):
        super().__init__(
            num_train=num_train,
            num_eval=num_eval,
            batch_size=batch_size,
            partition=partition,
            dirichlet_alpha=dirichlet_alpha,
            data_seed=data_seed,
        )
        self.l2 = float(l2)
        self.separation = float(separation)

    def _build_model(self) -> Model:
        return LogisticRegressionModel(NUM_FEATURES, l2=self.l2)

    def _build_data(self) -> tuple[Dataset, Dataset]:
        train = make_spambase_like(
            self.num_train, separation=self.separation, seed=self.data_seed
        )
        evaluation = make_spambase_like(
            self.num_eval,
            separation=self.separation,
            seed=self.data_seed + 1,
        )
        return train, evaluation


class SoftmaxMnistWorkload(DatasetWorkload):
    """Linear softmax regression on the procedural digit dataset."""

    name = "softmax-mnist"

    def __init__(
        self,
        num_train: int = 512,
        num_eval: int = 256,
        batch_size: int = 32,
        partition: str = "iid",
        dirichlet_alpha: float = 0.5,
        l2: float = 0.0,
        noise: float = 0.15,
        data_seed: int = 0,
    ):
        super().__init__(
            num_train=num_train,
            num_eval=num_eval,
            batch_size=batch_size,
            partition=partition,
            dirichlet_alpha=dirichlet_alpha,
            data_seed=data_seed,
        )
        self.l2 = float(l2)
        self.noise = float(noise)

    def _build_model(self) -> Model:
        return SoftmaxRegressionModel(IMAGE_SIDE * IMAGE_SIDE, 10, l2=self.l2)

    def _build_data(self) -> tuple[Dataset, Dataset]:
        train = make_mnist_like(
            self.num_train, noise=self.noise, seed=self.data_seed
        )
        evaluation = make_mnist_like(
            self.num_eval, noise=self.noise, seed=self.data_seed + 1
        )
        return train, evaluation


class MlpMnistWorkload(DatasetWorkload):
    """The full paper's MNIST task: a dense network on the digits."""

    name = "mlp-mnist"

    def __init__(
        self,
        num_train: int = 512,
        num_eval: int = 256,
        batch_size: int = 32,
        partition: str = "iid",
        dirichlet_alpha: float = 0.5,
        hidden_sizes: Sequence[int] = (32,),
        activation: str = "relu",
        init_seed: int = 0,
        noise: float = 0.15,
        data_seed: int = 0,
    ):
        super().__init__(
            num_train=num_train,
            num_eval=num_eval,
            batch_size=batch_size,
            partition=partition,
            dirichlet_alpha=dirichlet_alpha,
            data_seed=data_seed,
        )
        self.hidden_sizes = tuple(int(h) for h in hidden_sizes)
        self.activation = str(activation)
        self.init_seed = int(init_seed)
        self.noise = float(noise)

    def _build_model(self) -> Model:
        return MLPClassifier(
            IMAGE_SIDE * IMAGE_SIDE,
            10,
            hidden_sizes=self.hidden_sizes,
            activation=self.activation,
            init_seed=self.init_seed,
        )

    def _build_data(self) -> tuple[Dataset, Dataset]:
        train = make_mnist_like(
            self.num_train, noise=self.noise, seed=self.data_seed
        )
        evaluation = make_mnist_like(
            self.num_eval, noise=self.noise, seed=self.data_seed + 1
        )
        return train, evaluation


# ----------------------------------------------------------------------
# Registry

WORKLOADS: Registry[Workload] = Registry("workload")

register_workload = WORKLOADS.register
available_workloads = WORKLOADS.names
workload_factory = WORKLOADS.factory
make_workload = WORKLOADS.make


def workload_key(
    name: str, kwargs: Mapping[str, object] | None = None
) -> tuple:
    """Hashable identity of a ``(name, kwargs)`` workload spec.

    ``repr``-based so unhashable kwarg values (lists, dicts) still key
    correctly; used to share one workload instance across the cells of a
    grid and to deduplicate validation.
    """
    return (
        name,
        tuple(sorted((k, repr(v)) for k, v in (kwargs or {}).items())),
    )


register_workload("quadratic", QuadraticWorkload)
register_workload("logistic-spambase", LogisticSpambaseWorkload)
register_workload("softmax-mnist", SoftmaxMnistWorkload)
register_workload("mlp-mnist", MlpMnistWorkload)
