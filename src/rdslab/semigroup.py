"""Heat propagator with killing on the truncated half-line.

The linear part of the evolution is u_t = u_xx - mu u on x > 0 with an
absorbing boundary at the origin.  Its solution operator is

    (S(t) f)(x) = e^{-mu t} integral_0^inf [G_t(x - y) - G_t(x + y)] f(y) dy,

the free Gaussian propagated odd extension, restricted back to x >= 0.
On the truncated domain the integral runs over [0, L]; test fields decay
well before L so the cut mass is negligible.

The family obeys, for every bounded f and t > 0,

    sup |S(t) f|        <= e^{-mu t} sup |f|
    sup |d/dx S(t) f|   <= e^{-mu t} sup |f| / sqrt(pi t)
    sup |d2/dx2 S(t) f| <= e^{-mu t} sup |f| / t
    sup |d/dt S(t) f|   <= (1 + mu t) e^{-mu t} sup |f| / t

and these checks are performed with the linear product-integration path:
the matrix then represents the exact continuum smoothing of a
non-overshooting interpolant, so the inequalities are inherited exactly
and the finite-difference quotients are mean values of true derivatives.
"""

from __future__ import annotations

import numpy as np

from .errors import integer, positive
from .grid import Field, Grid, sup_norm
from .quadrature import flush_subnormal, operator_matrix

__all__ = ["DirichletHeatSemigroup"]


class DirichletHeatSemigroup:
    """Dense propagator matrices for a fixed grid and killing rate mu."""

    def __init__(self, grid: Grid, mu: float):
        self.grid = grid
        self.mu = float(positive("mu", mu))
        self._cache: dict[tuple[float, str], np.ndarray] = {}

    # -- matrices ---------------------------------------------------------

    def operator(self, t: float, order: str = "spline") -> np.ndarray:
        """Matrix of S(t) including the e^{-mu t} killing factor."""
        key = (float(positive("propagator time", t)), order)
        w = self._cache.get(key)
        if w is None:
            # scaled in place: an N = 800 build holds one matrix, not two.
            # The scaling can take a normal entry below the smallest normal
            # double, so the flush is repeated after it.
            w = operator_matrix(self.grid.nodes, self.grid.nodes, t, kind="image_pair", order=order)
            w *= np.exp(-self.mu * t)
            flush_subnormal(w)
            w.setflags(write=False)
            self._cache[key] = w
        return w

    def apply_via_odd_extension(self, t: float, f: Field, order: str = "spline") -> Field:
        """Same operator realized as free-space smoothing of the odd extension.

        Requires f(0) = 0 so that the odd extension interpolates.  Agrees
        with ``operator(t) @ f.values`` to floating-point roundoff; kept as a
        structural cross-check of the two-term kernel.
        """
        f.require_dirichlet("odd extension input")
        positive("propagator time", t)
        nodes = self.grid.nodes
        ext_nodes = np.concatenate([-nodes[:0:-1], nodes])
        ext_values = np.concatenate([-f.values[:0:-1], f.values])
        w = operator_matrix(nodes, ext_nodes, t, kind="free", order=order)
        return Field(self.grid, np.exp(-self.mu * t) * (w @ ext_values))

    # -- verification -----------------------------------------------------

    def check_bounds(self, f: Field, t: float) -> dict[str, tuple[float, float]]:
        """Measure the four decay/smoothing inequalities at time t > 0.

        Returns (measured, bound) by name, in the order sup, dx1, dx2,
        dt1.  Derivatives are estimated by central differences of the
        linear-path output (in x) and of the propagator family (in t,
        relative step 1e-3); the caller chooses the slack.
        """
        positive("bounds check time t", t)
        integer("bounds check cells N", self.grid.n_cells, 2)  # a second difference takes 3 nodes
        dx = self.grid.dx
        norm_f = sup_norm(f)
        decay = np.exp(-self.mu * t)

        v = self.operator(t, "linear") @ f.values
        d1 = (v[2:] - v[:-2]) / (2.0 * dx)
        d2 = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (dx * dx)
        h = t * 1e-3
        v_plus = self.operator(t + h, "linear") @ f.values
        v_minus = self.operator(t - h, "linear") @ f.values
        dtv = (v_plus - v_minus) / (2.0 * h)

        return {
            "sup": (float(np.max(np.abs(v))), decay * norm_f),
            "dx1": (float(np.max(np.abs(d1))), decay * norm_f / np.sqrt(np.pi * t)),
            "dx2": (float(np.max(np.abs(d2))), decay * norm_f / t),
            "dt1": (float(np.max(np.abs(dtv))), (1.0 + self.mu * t) * decay * norm_f / t),
        }
