"""Procedural MNIST substitute: rendered digit glyphs with noise.

The full paper trains an MLP on MNIST.  This module synthesizes a
10-class 28×28 grayscale digit dataset offline: each digit has a 7×5
stroke template which is upscaled, randomly translated, brightness-
jittered and corrupted with pixel noise.  The resulting task is
learnable-but-noisy, which is the only property the Byzantine-SGD
experiments consume (README.md, "Workloads").
"""

from __future__ import annotations

import math

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import ConfigurationError
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int

__all__ = ["make_mnist_like", "render_digit", "check_noise", "IMAGE_SIDE"]

IMAGE_SIDE = 28

# 7x5 stroke bitmaps for digits 0-9 (classic dot-matrix glyphs).
_TEMPLATE_ROWS: dict[int, tuple[str, ...]] = {
    0: ("01110", "10001", "10011", "10101", "11001", "10001", "01110"),
    1: ("00100", "01100", "00100", "00100", "00100", "00100", "01110"),
    2: ("01110", "10001", "00001", "00010", "00100", "01000", "11111"),
    3: ("01110", "10001", "00001", "00110", "00001", "10001", "01110"),
    4: ("00010", "00110", "01010", "10010", "11111", "00010", "00010"),
    5: ("11111", "10000", "11110", "00001", "00001", "10001", "01110"),
    6: ("00110", "01000", "10000", "11110", "10001", "10001", "01110"),
    7: ("11111", "00001", "00010", "00100", "01000", "01000", "01000"),
    8: ("01110", "10001", "10001", "01110", "10001", "10001", "01110"),
    9: ("01110", "10001", "10001", "01111", "00001", "00010", "01100"),
}


def _canvases() -> np.ndarray:
    """The 10 glyphs upscaled ×4 (to 28×20) and centred on zeroed
    28×28 canvases: a ``(10, 28, 28)`` float array."""
    canvases = np.zeros((10, IMAGE_SIDE, IMAGE_SIDE), dtype=np.float64)
    for digit, rows in _TEMPLATE_ROWS.items():
        bitmap = [[float(char) for char in row] for row in rows]
        glyph = np.kron(bitmap, np.ones((4, 4)))  # (28, 20)
        col0 = (IMAGE_SIDE - glyph.shape[1]) // 2
        canvases[digit, :, col0 : col0 + glyph.shape[1]] = glyph
    return canvases


_CANVASES = _canvases()


def check_noise(noise: float) -> float:
    """Validate the pixel-noise scale (finite and >= 0) and return it."""
    if not math.isfinite(noise) or noise < 0:
        raise ConfigurationError(f"noise must be finite and >= 0, got {noise}")
    return float(noise)


def _render(
    digits: np.ndarray, rng: np.random.Generator, noise: float, max_shift: int
) -> np.ndarray:
    """Render ``digits`` as a ``(k, 28, 28)`` stack, one image each.

    The draws are made per image, in image order: the row and column
    shifts (only when ``max_shift > 0``), the stroke intensity, then the
    pixel noise (only when ``noise > 0``).  The images themselves are
    rendered in one pass: a modular row/column gather of the canvases
    (what ``np.roll`` by the shifts computes), then scaling, noise and
    clipping in place.
    """
    count = len(digits)
    shifts = np.zeros((2, count, 1), dtype=np.intp)
    intensity = np.empty((count, 1, 1))
    images = np.empty((count, IMAGE_SIDE, IMAGE_SIDE)) if noise > 0 else None
    for i in range(count):
        if max_shift > 0:
            shifts[0, i] = rng.integers(-max_shift, max_shift + 1)
            shifts[1, i] = rng.integers(-max_shift, max_shift + 1)
        intensity[i] = rng.uniform(0.7, 1.0)
        if images is not None:
            images[i] = rng.normal(0.0, noise, size=(IMAGE_SIDE, IMAGE_SIDE))
    rows, cols = (np.arange(IMAGE_SIDE) - shifts) % IMAGE_SIDE
    strokes = _CANVASES[digits[:, None, None], rows[:, :, None], cols[:, None, :]]
    strokes *= intensity
    if images is None:
        images = strokes
    else:
        images += strokes
    return np.clip(images, 0.0, 1.0, out=images)


def render_digit(
    digit: int,
    rng: np.random.Generator,
    *,
    noise: float = 0.15,
    max_shift: int = 3,
) -> np.ndarray:
    """Render one 28×28 image of ``digit`` with random jitter and noise.

    The 7×5 template is upscaled ×4 (to 28×20), padded to 28×28, shifted
    by up to ``max_shift`` pixels in each direction, scaled by a random
    stroke intensity, then corrupted with clipped Gaussian pixel noise.
    """
    noise = check_noise(noise)
    max_shift = check_positive_int(max_shift, "max_shift", minimum=0)
    if not 0 <= digit <= 9:
        raise ConfigurationError(f"digit must be in [0, 9], got {digit}")
    return _render(np.array([digit]), rng, noise, max_shift)[0]


def make_mnist_like(
    num_samples: int,
    *,
    noise: float = 0.15,
    max_shift: int = 3,
    seed: SeedLike = None,
) -> Dataset:
    """Generate a balanced 10-class digit dataset of flattened images.

    Returns a :class:`Dataset` with ``inputs`` in ``[0, 1]^{784}`` and
    integer labels 0–9, classes drawn uniformly.  Every image is what
    :func:`render_digit` would draw from the same stream after the
    labels.
    """
    num_samples = check_positive_int(num_samples, "num_samples")
    noise = check_noise(noise)
    max_shift = check_positive_int(max_shift, "max_shift", minimum=0)
    rng = as_generator(seed)
    labels = rng.integers(0, 10, size=num_samples)
    images = _render(labels, rng, noise, max_shift)
    return Dataset(
        images.reshape(num_samples, IMAGE_SIDE * IMAGE_SIDE),
        labels,
        task="multiclass",
        num_classes=10,
        name="mnist-like",
    )
