"""Strongly convex quadratic cost with a known optimum.

``Q(x) = ½ (x − x*)ᵀ A (x − x*) + c`` with symmetric positive-definite
``A``.  All conditions of Proposition 4.3 hold analytically (three-times
differentiable, non-negative, gradient pointing back toward the optimum
beyond any horizon), which makes it the reference workload for the
convergence experiments: the distance to ``x*`` and the exact gradient
norm are measurable at every round.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.gradients.oracle import GaussianOracleEstimator
from repro.models.base import Model

__all__ = ["QuadraticBowl"]


class QuadraticBowl(Model):
    """Quadratic bowl; as a :class:`Model` it ignores batch data.

    The ``loss``/``gradient`` methods accept (and ignore) batch arguments
    so the model can ride through the same simulator as data-driven
    models; the idiomatic way to add stochasticity is
    :meth:`as_estimator`, which wraps the exact gradient in the Gaussian
    oracle of the paper's analysis.

    ``curvature`` keeps the form it was given: a scalar ``c`` is the
    isotropic ``A = c·I`` held as a float (O(d) memory and work, results
    equal to the dense ``c·I`` product for finite inputs), and a
    symmetric ``(d, d)`` matrix is applied as a matvec.  Every knob must
    be finite; parameters need not be.  With a scalar curvature an
    infinite parameter coordinate stays in its own gradient coordinate,
    where a dense matvec would spread NaN to all of them through
    ``0 · inf``.
    """

    def __init__(
        self,
        dimension: int,
        *,
        optimum: np.ndarray | None = None,
        curvature: np.ndarray | float = 1.0,
        offset: float = 0.0,
    ):
        if dimension < 1:
            raise ConfigurationError(f"dimension must be >= 1, got {dimension}")
        self._dimension = int(dimension)
        self.optimum = (
            np.zeros(dimension)
            if optimum is None
            else np.asarray(optimum, dtype=np.float64).copy()
        )
        if self.optimum.shape != (dimension,):
            raise ConfigurationError(
                f"optimum must have shape ({dimension},), got {self.optimum.shape}"
            )
        if not np.all(np.isfinite(self.optimum)):
            raise ConfigurationError("optimum must be finite")
        #: The scalar ``c`` of ``A = c·I`` (a float) or the ``(d, d)`` matrix.
        self.curvature: np.ndarray | float
        if np.isscalar(curvature) or np.ndim(curvature) == 0:
            self.curvature = float(curvature)
            if not np.isfinite(self.curvature) or self.curvature <= 0:
                raise ConfigurationError(
                    f"curvature must be positive and finite, got {self.curvature}"
                )
        else:
            self.curvature = np.asarray(curvature, dtype=np.float64).copy()
            if self.curvature.shape != (dimension, dimension):
                raise ConfigurationError(
                    f"curvature must be ({dimension}, {dimension}), "
                    f"got {self.curvature.shape}"
                )
            if not np.all(np.isfinite(self.curvature)):
                raise ConfigurationError("curvature matrix must be finite")
            if not np.allclose(self.curvature, self.curvature.T):
                raise ConfigurationError("curvature matrix must be symmetric")
            eigenvalues = np.linalg.eigvalsh(self.curvature)
            if eigenvalues.min() <= 0:
                raise ConfigurationError(
                    f"curvature must be positive definite; min eigenvalue "
                    f"{eigenvalues.min():.3g}"
                )
        self.offset = float(offset)
        if not np.isfinite(self.offset) or self.offset < 0:
            raise ConfigurationError(
                f"offset must be finite and non-negative (Q >= 0 required), "
                f"got {self.offset}"
            )

    @property
    def dimension(self) -> int:
        return self._dimension

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return self.optimum + rng.normal(0.0, 1.0, size=self._dimension) * 5.0

    def _apply(self, delta: np.ndarray) -> np.ndarray:
        """``A · delta`` per row of a ``(..., d)`` ``delta``: a scalar
        product, a dense matvec, or stacked matvecs (equal to ``A @ row``
        per row bit for bit, which ``delta @ A.T`` is not)."""
        if isinstance(self.curvature, float):
            return self.curvature * delta
        if delta.ndim == 1:
            return self.curvature @ delta
        return np.matmul(self.curvature, delta[..., None])[..., 0]

    def value(self, params: np.ndarray) -> float:
        """Exact cost ``Q(params)``."""
        delta = np.asarray(params, dtype=np.float64) - self.optimum
        return float(self._apply(0.5 * delta) @ delta + self.offset)

    def exact_gradient(self, params: np.ndarray) -> np.ndarray:
        """Exact gradient ``∇Q(params) = A (params − x*)``.  A ``(..., d)``
        block of parameter rows gives every row's gradient, each equal
        bit for bit to the one-row call."""
        delta = np.asarray(params, dtype=np.float64) - self.optimum
        return self._apply(delta)

    def distance_to_optimum(self, params: np.ndarray) -> float:
        return float(np.linalg.norm(np.asarray(params, dtype=np.float64) - self.optimum))

    # Model interface — batch arguments ignored (cost is analytic).
    def loss(self, params: np.ndarray, inputs: np.ndarray, targets: np.ndarray) -> float:
        del inputs, targets
        return self.value(params)

    def gradient(
        self, params: np.ndarray, inputs: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        del inputs, targets
        return self.exact_gradient(params)

    def as_estimator(self, sigma: float) -> GaussianOracleEstimator:
        """The paper's Gaussian gradient estimator around this cost."""
        estimator = GaussianOracleEstimator(
            self.exact_gradient, self._dimension, sigma
        )
        estimator.row_blocks = True
        return estimator
