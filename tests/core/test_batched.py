"""Tests for the batched-kernel registry plumbing and its validation.

The bit-for-bit kernel/loop identity lives in
``tests/engine/test_differential.py``; this module covers the registry
surface itself — native-kernel coverage, an oversized chunk, and the
grouping rules.
"""

import numpy as np
import pytest

from repro.baselines.medians import GeometricMedian
from repro.core.batched import (
    batched_kernel_names,
    batched_krum_scores,
    has_batched_kernel,
    make_batched_aggregator,
)
from repro.core.bulyan import Bulyan
from repro.exceptions import ConfigurationError
from repro.utils import linalg


class TestNativeKernelCoverage:
    def test_bulyan_and_geometric_median_are_native(self):
        for rule in (Bulyan(f=1), GeometricMedian()):
            assert has_batched_kernel(rule), rule.name
            adapter = make_batched_aggregator(rule)
            assert adapter.is_native, rule.name

    def test_kernel_names_list_new_rules(self):
        names = batched_kernel_names()
        assert "Bulyan" in names
        assert "GeometricMedian" in names

    def test_differently_configured_medians_do_not_group(self):
        # GeometricMedian's name encodes non-default parameters, so the
        # (type, name) group key keeps configurations apart.
        with pytest.raises(ConfigurationError, match="differently-configured"):
            make_batched_aggregator(
                [GeometricMedian(), GeometricMedian(tolerance=1e-12)]
            )


def test_oversized_chunk_is_fine(rng, monkeypatch):
    batch = rng.standard_normal((3, 9, 4))
    whole = batched_krum_scores(batch, 1)
    monkeypatch.setattr(linalg, "CHUNK_SIZE", 1000)
    np.testing.assert_array_equal(batched_krum_scores(batch, 1), whole)
