"""Datasets and partitioning.

The paper's experiments (full version) use MNIST and spambase.  Since
this reproduction runs offline, :mod:`repro.data.mnist_like` and
:mod:`repro.data.spambase_like` generate synthetic datasets with the same
input dimensionality, class structure and difficulty profile.  The
substitution keeps what the theory depends on: unbiased mini-batch
gradients with controllable variance (README.md, "Workloads").
"""

from repro.data.dataset import Dataset, train_test_split
from repro.data.mnist_like import make_mnist_like
from repro.data.partition import (
    dirichlet_partition,
    iid_partition,
    label_shard_partition,
)
from repro.data.spambase_like import make_spambase_like
from repro.data.synthetic import (
    make_blobs,
    make_linear_regression,
    make_logistic_data,
)

__all__ = [
    "Dataset",
    "train_test_split",
    "make_blobs",
    "make_linear_regression",
    "make_logistic_data",
    "make_mnist_like",
    "make_spambase_like",
    "iid_partition",
    "label_shard_partition",
    "dirichlet_partition",
]
