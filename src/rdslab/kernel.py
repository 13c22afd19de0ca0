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
entries are nonnegative and row sums equal the exact truncated kernel
mass.  The contraction property therefore holds for the matrix itself,
not merely up to quadrature error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .grid import Grid
from .quadrature import erf, operator_matrix

__all__ = [
    "KernelParams",
    "DispersalKernel",
    "tail_mass",
]


@dataclass(frozen=True)
class KernelParams:
    """Dispersal parameters: maturation window alpha > 0."""

    alpha: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ParameterError(f"alpha must be positive and finite, got {self.alpha!r}")


def tail_mass(p: KernelParams | float, grid: Grid) -> float:
    """Neglected kernel mass beyond the domain: max over x <= L/2 of
    integral_L^infinity Gamma(alpha, x, y) dy.

    Closed form: (1/2)[erfc((L-x)/(2 sqrt a)) - erfc((L+x)/(2 sqrt a))].
    Test fields decay well before L/2, so that is the probe range; near
    x = L the neglected mass is O(1) for any L and the truncation would
    be meaningless.
    """
    alpha = p.alpha if isinstance(p, KernelParams) else float(p)
    xs = grid.nodes[grid.nodes <= grid.length / 2.0 + 1e-12]
    s = 2.0 * np.sqrt(alpha)
    vals = 0.5 * ((1.0 - erf((grid.length - xs) / s)) - (1.0 - erf((grid.length + xs) / s)))
    return float(np.max(vals))


class DispersalKernel:
    """Precomputed dense matrix of the dispersal operator on a grid."""

    def __init__(self, params: KernelParams | float, grid: Grid):
        self.params = params if isinstance(params, KernelParams) else KernelParams(float(params))
        self.grid = grid
        self.matrix = operator_matrix(
            grid.nodes, grid.nodes, self.params.alpha, kind="image_pair", order="linear"
        )
        self.matrix.setflags(write=False)

    def apply_values(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.shape[-1] != self.grid.n_cells + 1:
            raise ParameterError(
                f"values last axis {values.shape[-1]} does not match grid ({self.grid.n_cells + 1})"
            )
        return values @ self.matrix.T
