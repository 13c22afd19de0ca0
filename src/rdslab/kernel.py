"""Nonlocal birth-dispersal operator on the truncated half-line.

The kernel is the odd-image Gaussian pair

    Gamma(alpha, x, y) = (4 pi alpha)^{-1/2}
                         [exp(-(x-y)^2/(4 alpha)) - exp(-(x+y)^2/(4 alpha))]

for x, y >= 0, describing dispersal of newborns over a maturation window
of length alpha with an absorbing boundary at the origin.  The induced
operator K f = integral Gamma(alpha, ., y) f(y) dy is positive and is a
sup-norm contraction: applied to the constant 1 it returns
erf(x / (2 sqrt(alpha))) < 1.

The matrix uses linear product integration (see quadrature module), so
entries are nonnegative and row sums are the truncated kernel mass,
rounded: at most 1 up to one ulp.  The contraction property therefore
holds for the matrix itself to that ulp, not up to quadrature error.

Gamma(alpha) is the heat kernel's image pair at time alpha, so the matrix
is the linear H(alpha) of ``quadrature.shared_matrix``, shared read-only.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, float_array, positive
from .grid import Grid
from .quadrature import erf, shared_matrix

__all__ = ["DispersalKernel", "tail_mass"]


def tail_mass(alpha: float, grid: Grid) -> float:
    """Neglected kernel mass beyond the domain: max over x <= L/2 of
    integral_L^infinity Gamma(alpha, x, y) dy.

    Closed form: (1/2)[erfc((L-x)/(2 sqrt a)) - erfc((L+x)/(2 sqrt a))].
    Test fields decay well before L/2, so that is the probe range; near
    x = L the neglected mass is O(1) for any L and the truncation would
    be meaningless.
    """
    xs = grid.nodes[grid.nodes <= grid.length / 2.0 + 1e-12]
    s = 2.0 * np.sqrt(alpha)
    vals = 0.5 * ((1.0 - erf((grid.length - xs) / s)) - (1.0 - erf((grid.length + xs) / s)))
    return float(np.max(vals))


class DispersalKernel:
    """Precomputed dense matrix of the dispersal operator on a grid."""

    def __init__(self, alpha: float, grid: Grid):
        positive("alpha", alpha)
        self.grid = grid
        self.matrix = shared_matrix(grid, alpha, "linear")

    def apply_values(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The operator on the last axis of ``values``, written to ``out`` if given."""
        values = float_array("values", values)
        if values.shape[-1:] != self.grid.nodes.shape:
            raise ParameterError(f"values shape {values.shape} must end in {self.grid.nodes.shape}")
        return np.matmul(values, self.matrix.T, out=out)
