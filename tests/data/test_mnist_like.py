"""Tests for the procedural MNIST substitute."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.mnist_like import IMAGE_SIDE, make_mnist_like, render_digit
from repro.exceptions import ConfigurationError
from repro.models.softmax import SoftmaxRegressionModel
from tests.data.mnist_reference import (
    reference_mnist_like,
    reference_render_digit,
)

NOISES = (0.0, 0.15, 0.5)
SHIFTS = (0, 1, 3)


class TestRenderDigit:
    def test_shape_and_range(self, rng):
        image = render_digit(5, rng)
        assert image.shape == (IMAGE_SIDE, IMAGE_SIDE)
        assert image.min() >= 0.0
        assert image.max() <= 1.0

    def test_all_digits_render(self, rng):
        for digit in range(10):
            image = render_digit(digit, rng)
            assert image.sum() > 5.0, f"digit {digit} renders almost empty"

    def test_digits_are_distinguishable_without_noise(self):
        rng = np.random.default_rng(0)
        clean = [
            render_digit(d, rng, noise=0.0, max_shift=0) for d in range(10)
        ]
        for i in range(10):
            for j in range(i + 1, 10):
                assert np.abs(clean[i] - clean[j]).sum() > 10.0

    def test_rejects_invalid_digit(self, rng):
        with pytest.raises(ConfigurationError):
            render_digit(10, rng)

    @pytest.mark.parametrize("noise", NOISES)
    @pytest.mark.parametrize("max_shift", SHIFTS)
    def test_matches_frozen_per_image_renderer(self, noise, max_shift):
        ours = np.random.default_rng(11)
        theirs = np.random.default_rng(11)
        for digit in range(10):
            image = render_digit(digit, ours, noise=noise, max_shift=max_shift)
            expected = reference_render_digit(
                digit, theirs, noise=noise, max_shift=max_shift
            )
            assert image.shape == expected.shape
            assert image.tobytes() == expected.tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize(
        "knobs, match",
        [
            ({"noise": float("nan")}, "noise"),
            ({"noise": float("inf")}, "noise"),
            ({"noise": -1.0}, "noise"),
            ({"max_shift": -2}, "max_shift"),
            ({"max_shift": 1.5}, "max_shift"),
            ({"max_shift": True}, "max_shift"),
        ],
    )
    def test_rejects_bad_jitter(self, rng, knobs, match):
        with pytest.raises(ConfigurationError, match=match):
            render_digit(3, rng, **knobs)


class TestMakeMnistLike:
    def test_shapes(self):
        ds = make_mnist_like(64, seed=0)
        assert ds.inputs.shape == (64, 784)
        assert ds.num_classes == 10
        assert ds.task == "multiclass"

    def test_reproducible(self):
        a = make_mnist_like(16, seed=5)
        b = make_mnist_like(16, seed=5)
        np.testing.assert_array_equal(a.inputs, b.inputs)

    def test_roughly_balanced_classes(self):
        ds = make_mnist_like(2000, seed=1)
        counts = np.bincount(ds.targets, minlength=10)
        assert counts.min() > 120  # uniform would be 200 each

    def test_rejects_zero_samples(self):
        with pytest.raises(ConfigurationError):
            make_mnist_like(0)

    @pytest.mark.parametrize(
        "args, knobs, match",
        [
            ((16,), {"noise": float("nan")}, "noise"),
            ((16,), {"noise": -1.0}, "noise"),
            ((16,), {"max_shift": -2}, "max_shift"),
            ((16,), {"max_shift": 2.5}, "max_shift"),
            ((16.5,), {}, "num_samples"),
            ((True,), {}, "num_samples"),
        ],
    )
    def test_rejects_bad_knobs(self, args, knobs, match):
        with pytest.raises(ConfigurationError, match=match):
            make_mnist_like(*args, seed=0, **knobs)

    @settings(max_examples=60, deadline=None)
    @given(
        num_samples=st.integers(1, 300),
        noise=st.sampled_from(NOISES),
        max_shift=st.sampled_from(SHIFTS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_frozen_per_image_generator(
        self, num_samples, noise, max_shift, seed
    ):
        """The one-pass renderer gives HEAD's per-image dataset byte for
        byte and leaves the passed generator exactly where it did."""
        ours = np.random.default_rng(seed)
        theirs = np.random.default_rng(seed)
        dataset = make_mnist_like(
            num_samples, noise=noise, max_shift=max_shift, seed=ours
        )
        inputs, targets = reference_mnist_like(
            num_samples, theirs, noise=noise, max_shift=max_shift
        )
        assert dataset.inputs.shape == inputs.shape
        assert dataset.inputs.tobytes() == inputs.tobytes()
        assert dataset.targets.tobytes() == targets.astype(np.int64).tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_task_is_learnable(self, rng):
        # A linear softmax classifier should beat random (10%) easily —
        # this is what makes the dataset a valid MNIST stand-in.
        train = make_mnist_like(800, seed=2)
        test = make_mnist_like(200, seed=3)
        model = SoftmaxRegressionModel(784, 10)
        params = model.init_params(rng)
        for _step in range(60):
            params -= 0.5 * model.gradient(params, train.inputs, train.targets)
        assert model.accuracy(params, test.inputs, test.targets) > 0.8
