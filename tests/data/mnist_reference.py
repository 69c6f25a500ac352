"""The per-image digit renderer as it stood before the one-pass renderer.

Frozen on purpose: ``tests/data/test_mnist_like.py`` pins
``make_mnist_like`` and ``render_digit`` to these functions byte for
byte, including how far each consumes the generator.  Do not edit to
follow the library.
"""

from __future__ import annotations

import numpy as np

IMAGE_SIDE = 28

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


def _templates() -> np.ndarray:
    glyphs = np.zeros((10, 7, 5), dtype=np.float64)
    for digit, rows in _TEMPLATE_ROWS.items():
        for r, row in enumerate(rows):
            for c, char in enumerate(row):
                glyphs[digit, r, c] = 1.0 if char == "1" else 0.0
    return glyphs


_GLYPHS = _templates()


def reference_render_digit(
    digit: int, rng: np.random.Generator, *, noise: float, max_shift: int
) -> np.ndarray:
    glyph = np.kron(_GLYPHS[digit], np.ones((4, 4)))  # (28, 20)
    canvas = np.zeros((IMAGE_SIDE, IMAGE_SIDE), dtype=np.float64)
    col0 = (IMAGE_SIDE - glyph.shape[1]) // 2
    canvas[:, col0 : col0 + glyph.shape[1]] = glyph
    if max_shift > 0:
        shift_r = int(rng.integers(-max_shift, max_shift + 1))
        shift_c = int(rng.integers(-max_shift, max_shift + 1))
        canvas = np.roll(np.roll(canvas, shift_r, axis=0), shift_c, axis=1)
    intensity = rng.uniform(0.7, 1.0)
    image = canvas * intensity
    if noise > 0:
        image = image + rng.normal(0.0, noise, size=image.shape)
    return np.clip(image, 0.0, 1.0)


def reference_mnist_like(
    num_samples: int, rng: np.random.Generator, *, noise: float, max_shift: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(inputs, targets)`` of ``make_mnist_like`` drawn from ``rng``."""
    labels = rng.integers(0, 10, size=num_samples)
    images = np.empty((num_samples, IMAGE_SIDE * IMAGE_SIDE), dtype=np.float64)
    for i, digit in enumerate(labels):
        images[i] = reference_render_digit(
            int(digit), rng, noise=noise, max_shift=max_shift
        ).ravel()
    return images, labels
