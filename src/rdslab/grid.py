"""Spatial domain, sampled fields, and the norms used throughout.

The half-line is truncated to ``[0, L]`` and discretized by ``N + 1``
uniformly spaced nodes.  A :class:`Field` is a pointwise sample of a
bounded function on those nodes; between nodes the function is treated as
piecewise polynomial by the quadrature layer, never here.

Two norms matter.  The supremum norm is the plain max of absolute node
values.  The compact-open norm is the weighted series

    sum_{n >= 1} 2^{-n} * sup_{[0, min(n, L)]} |f|

truncated at ``n_max = ceil(L)`` terms plus the tail bound
``2^{-n_max} * sup |f|``.  Every neglected term has the window [0, L], so
the tail is exactly their sum: the truncated value is the full series on
the truncated domain and never exceeds ``sup |f|``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, float_array, integer, positive

__all__ = [
    "Grid",
    "Field",
    "Segment",
    "make_grid",
    "sup_norm",
    "segment_co_norm",
    "default_n_max",
    "lattice_steps",
]

# Largest distance, in steps, from a whole number of steps that still
# counts as on the lattice.
_LATTICE_TOL = 1e-9


def lattice_steps(span, step: float, what: str, minimum: int | None = 0):
    """Whole number of steps in span: an int for a scalar, int64 for an array.

    This is the one lattice rule of the package: every time, delay,
    horizon, window end and node coordinate that must sit on a lattice is
    turned into steps here.  A value is on the lattice when span / step
    lies within 1e-9 of an integer, measured in steps; ParameterError,
    naming ``what`` and the first bad value, reports a value that is off
    the lattice (an infinite or NaN one included) or below ``minimum``
    steps (``None``: no lower bound).

    The tolerance is absolute in steps, one comparison on the distances
    already computed.  A scalar takes the same array computation as an
    array and comes back as an int.
    """
    positive(f"{what}: lattice step", step)
    x = float_array(what, span)
    # an overflowing span / step is inf, and inf - inf is NaN: both fail the test
    with np.errstate(over="ignore", invalid="ignore"):
        k = x / step
        n = np.rint(k)
        on = np.abs(k - n) <= _LATTICE_TOL
    ok = on if minimum is None else on & (n >= minimum)
    if not ok.all():
        i = int(np.argmin(ok))
        why = f"is below {minimum} steps of" if on.flat[i] else "is off the lattice of step"
        raise ParameterError(f"{what} {float(x.flat[i])} {why} {step}")
    return int(n) if n.ndim == 0 else n.astype(np.int64)


@dataclass(frozen=True)
class Grid:
    """Uniform mesh on [0, L], built from L and N alone.

    Attributes
    ----------
    length : float
        Right endpoint L > 0 of the truncated domain.
    n_cells : int
        Number of cells N >= 1; there are N + 1 nodes.
    dx : float
        Cell width L / N.
    nodes : numpy.ndarray
        Read-only node coordinates, ``nodes[0] == 0`` and ``nodes[-1] == L`` exactly.
    """

    length: float
    n_cells: int
    dx: float = field(init=False)
    nodes: np.ndarray = field(init=False, repr=False, compare=False)  # fixed by length and n_cells

    def __post_init__(self) -> None:
        length = float(positive("length", self.length))
        n = int(integer("n_cells", self.n_cells, 1))
        nodes = np.linspace(0.0, length, n + 1)
        nodes.setflags(write=False)
        for name, value in (("length", length), ("n_cells", n), ("dx", length / n), ("nodes", nodes)):
            object.__setattr__(self, name, value)

    def last_node(self, x: float) -> int:
        """Index of the last node at or below x, at most N: a node within
        1e-9 of a step above x counts as at x, by the lattice tolerance."""
        return min(self.n_cells, math.floor(x / self.dx + _LATTICE_TOL))


make_grid = Grid  # one constructor, also under the name that README and perfbench call


@dataclass(frozen=True)
class Field:
    """Node samples of a bounded function on the grid.

    Values must be finite.  Solution fields of the evolution problem
    vanish at x = 0 (the absorbing boundary); the solver enforces that on
    entry via :meth:`require_dirichlet`.  Diagnostic fields such as the
    constant 1 used to probe the dispersal operator carry no boundary
    constraint, so the constructor does not force one.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = float_array("field values", self.values)
        if v.shape != (self.grid.n_cells + 1,):
            raise ParameterError(
                f"field values have shape {v.shape}, expected {(self.grid.n_cells + 1,)}"
            )
        if not np.all(np.isfinite(v)):
            raise ParameterError("field values must be finite")
        object.__setattr__(self, "values", v)
        v.setflags(write=False)

    @property
    def is_dirichlet(self) -> bool:
        return self.values[0] == 0.0

    def require_dirichlet(self, what: str = "field") -> "Field":
        if not self.is_dirichlet:
            raise ParameterError(f"{what} must vanish at x = 0, got {self.values[0]!r}")
        return self

    @classmethod
    def zero(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros(grid.n_cells + 1))


def sup_norm(f: Field) -> float:
    """Supremum norm over the node samples."""
    return float(np.max(np.abs(f.values)))


def default_n_max(grid: Grid) -> int:
    """Default truncation depth for the compact-open norm: ceil(L)."""
    return max(1, int(math.ceil(grid.length)))


def _co_norms(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Compact-open norm of every row of values (last axis = nodes).

    Each row's series is summed in the same n order whatever the number
    of rows, so a row's norm does not depend on the rows beside it.
    """
    n_max = default_n_max(grid)
    # Running sup over [0, x_i]; window sup for [0, min(n, L)] is a lookup
    # at last_node(n), which stops at N.
    prefix = np.maximum.accumulate(np.abs(values), axis=-1)
    total = np.zeros(values.shape[:-1])
    for n in range(1, n_max + 1):
        total += 2.0 ** (-n) * prefix[..., grid.last_node(n)]
    total += 2.0 ** (-n_max) * prefix[..., -1]
    return total


@dataclass(frozen=True)
class Segment:
    """History segment: fields at times -tau, -tau + dt, ..., 0.

    Attributes
    ----------
    grid : Grid
    tau : float
        Delay span covered by the segment.
    dt : float
        Frame spacing; ``tau / dt`` must be an integer.
    values : numpy.ndarray
        Shape ``(tau/dt + 1, N + 1)``; row k samples time ``-tau + k*dt``.
    """

    grid: Grid
    tau: float
    dt: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        want = (lattice_steps(positive("tau", self.tau), positive("dt", self.dt), "tau") + 1,
                self.grid.n_cells + 1)
        v = float_array("segment values", self.values)
        if v.shape != want:
            raise ParameterError(f"segment values have shape {v.shape}, expected {want}")
        if not np.all(np.isfinite(v)):
            raise ParameterError("segment values must be finite")
        object.__setattr__(self, "values", v)
        v.setflags(write=False)

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    def frame(self, k: int) -> Field:
        return Field(self.grid, self.values[k])

    def require_dirichlet(self, what: str = "segment") -> "Segment":
        if np.any(self.values[:, 0] != 0.0):
            raise ParameterError(f"{what} frames must vanish at x = 0")
        return self

    @classmethod
    def constant(cls, f: Field, tau: float, dt: float) -> "Segment":
        m = lattice_steps(tau, dt, "tau")
        return cls(f.grid, tau, dt, np.tile(f.values, (m + 1, 1)))

    @classmethod
    def from_function(cls, grid: Grid, tau: float, dt: float, fn) -> "Segment":
        """Sample fn(xi, x) at every frame time and node."""
        m = lattice_steps(tau, dt, "tau")
        xis = -tau + dt * np.arange(m + 1)
        rows = [float_array("fn values", fn(xi, grid.nodes)) for xi in xis]
        return cls(grid, tau, dt, np.vstack(rows))


def segment_co_norm(s: Segment) -> float:
    """Sup over frames of the compact-open norm."""
    return float(np.max(_co_norms(s.grid, s.values)))
