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

S(t) is e^{-mu t} times the image-pair matrix H(t), so a semigroup is
bound to a grid and takes mu with each call.  It caches nothing: matrices
come from ``quadrature.shared_matrix``, which hands callers alive together
one array, and scales a held H(t) into a copy with a fresh assembly's bits.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import integer, positive
from .grid import Field, Grid, sup_norm
from .quadrature import operator_matrix, shared_matrix

__all__ = ["DirichletHeatSemigroup"]


def bounds_check_cells(n_cells: int) -> int:
    """``n_cells``, if :meth:`DirichletHeatSemigroup.check_bounds` can take
    its second differences: N >= 2, so three nodes."""
    return integer("bounds check cells N", n_cells, 2)


class DirichletHeatSemigroup:
    """Dense propagator matrices on a fixed grid; the killing rate mu is an
    argument of each call."""

    def __init__(self, grid: Grid):
        self.grid = grid

    # -- matrices ---------------------------------------------------------

    def operator(self, t: float, mu: float, order: str = "spline") -> np.ndarray:
        """Matrix of S(t) including the e^{-mu t} killing factor: read-only,
        and the very array any live holder of the same matrix has."""
        positive("propagator time", t)
        positive("mu", mu)
        return shared_matrix(self.grid, t, order, mu)

    def apply_via_odd_extension(self, t: float, mu: float, f: Field, order: str = "spline") -> Field:
        """Same operator realized as free-space smoothing of the odd extension.

        Requires f(0) = 0 so that the odd extension interpolates.  Agrees
        with ``operator(t, mu) @ f.values`` to floating-point roundoff; kept
        as a structural cross-check of the two-term kernel.
        """
        f.require_dirichlet("odd extension input")
        positive("propagator time", t)
        positive("mu", mu)
        nodes = self.grid.nodes
        ext_nodes = np.concatenate([-nodes[:0:-1], nodes])
        ext_values = np.concatenate([-f.values[:0:-1], f.values])
        w = operator_matrix(nodes, ext_nodes, t, kind="free", order=order)
        return Field(self.grid, np.exp(-mu * t) * (w @ ext_values))

    # -- verification -----------------------------------------------------

    def check_bounds(self, fields: Sequence[Field], t: float, rates: Sequence[float]) -> list:
        """Measure the four decay/smoothing inequalities at time t > 0 for
        every field and killing rate.

        Returns, indexed [field][rate], (measured, bound) by name in the
        order sup, dx1, dx2, dt1.  Derivatives are estimated by central
        differences of the linear-path output (in x) and of the propagator
        family (in t, relative step 1e-3); the caller chooses the slack.
        Each time s holds one H(s) while every rate scales a copy of it.
        """
        positive("bounds check time t", t)
        bounds_check_cells(self.grid.n_cells)
        dx = self.grid.dx
        h = t * 1e-3
        products = [[] for _ in rates]  # [rate][time][field]
        for s in (t, t + h, t - h):
            held = shared_matrix(self.grid, s, "linear")  # every rate's propagator scales it
            for by_time, mu in zip(products, rates):
                w = self.operator(s, mu, "linear")
                by_time.append([w @ f.values for f in fields])
                del w  # one propagator alive at a time
            del held
        out = [[] for _ in fields]
        for mu, (at_t, at_plus, at_minus) in zip(rates, products):
            decay = np.exp(-mu * t)
            for row, f, v, v_plus, v_minus in zip(out, fields, at_t, at_plus, at_minus):
                norm_f = sup_norm(f)
                d1 = (v[2:] - v[:-2]) / (2.0 * dx)
                d2 = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (dx * dx)
                dtv = (v_plus - v_minus) / (2.0 * h)
                row.append({
                    "sup": (float(np.max(np.abs(v))), decay * norm_f),
                    "dx1": (float(np.max(np.abs(d1))), decay * norm_f / np.sqrt(np.pi * t)),
                    "dx2": (float(np.max(np.abs(d2))), decay * norm_f / t),
                    "dt1": (float(np.max(np.abs(dtv))), (1.0 + mu * t) * decay * norm_f / t),
                })
        return out
