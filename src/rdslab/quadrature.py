"""Exact Gaussian product integration against interpolated node samples.

Both the birth-dispersal operator and the absorbing-boundary heat
propagator have the form

    (A f)(x) = integral  k_a(x, y) f(y) dy   over a bounded interval,

where ``k_a`` is either the free Gaussian ``G_a(x - y)`` or the
image pair ``G_a(x - y) - G_a(x + y)`` with
``G_a(u) = (4 pi a)^{-1/2} exp(-u^2 / (4 a))``.

Node-point quadrature of such kernels is limited to O(dx^2) by the
boundary term of the Euler-Maclaurin expansion and collapses entirely
once the Gaussian width falls below the mesh.  Instead we integrate the
kernel exactly against a polynomial interpolant of the samples, using
closed-form Gaussian interval moments.  The matrix entries then inherit
no quadrature error at all; the only error left is interpolation of the
input samples.

Two interpolation orders are provided and the distinction is load-bearing:

``linear``
    Piecewise linear.  Never overshoots the data, so the assembled
    matrix for the image pair has nonnegative entries and row sums of
    at most 1 up to one ulp (a sweep found rows of 1 + 2^-52, all at
    dx / sigma >= 1.7).  Operator-norm inequalities proved for the
    continuum operators then hold for the matrix to that ulp.  Used
    wherever a bound is asserted (dispersal operator, propagator decay
    checks).

``spline``
    Natural cubic spline, O(dx^4) on smooth data.  Used where accuracy
    is asserted (semigroup composition law, closed-form reproduction),
    and by the time stepper for S(dt) and S(dt/2).  It can overshoot
    rough data, which breaks sup-sharp inequalities once sigma nears dx:
    at N = 200, L = 20, mu = 1 the propagator's min entry and
    ||S(t)||_inf e^{mu t} - 1 are -1.8e-5 and 2.0e-9 at t = 0.01,
    -8.3e-4 and 7.3e-5 at t = 0.005, -1.7e-2 and 2.3e-3 at t = 0.0025.
    At N = 800 the excess is at most 2.2e-16.

Assembly uses the lattice.  The nodes must be uniform and every output
point a whole number p_i of steps from ``in_nodes[0]`` (both checked by
:func:`rdslab.grid.lattice_steps`, so ParameterError names the value
off the lattice).  A cell then sits (n - p_i) dx from the centre of the
direct term ``G_a(x - y)`` and 2 in_nodes[0] + (n + p_i) dx from that of
the image term ``G_a(x + y)``.  Each term's moments are evaluated once
per offset, O(N) special-function values, combined into node weights,
and gathered as windows of that table: Toeplitz for the direct term,
Hankel for the image.  At x = 0 both read the same entries, so that row
is exactly 0.  The spline's second derivatives at the interior nodes are
A^{-1} R f (A the tridiagonal spline system, R the second difference);
their weights G enter as (A^{-1} G^T)^T R, one banded solve with the
output rows as right-hand sides, so no step costs more than O(N^2).
The solved h = (A^{-1} G^T)^T is copied to memory order before the
linear table is gathered, so the spline update reads it with unit stride.
Both terms' cells go through one moment evaluation, and the normal CDF
pair is evaluated once per edge.  The image term is subtracted,
the spline update added and the flush below applied a row block at a
time, so an assembly holds at most two matrices and a block.

Sharing.  ``operator_matrix`` is the pure assembler.  The dispersal kernel
and the heat semigroup take read-only matrices from ``shared_matrix``,
keyed by grid, a, order and (for a killed propagator) mu.  Its table holds
weak references: a lookup returns the array a live holder has, else
assembles it, and a matrix dies with its last holder.

Subnormal flush.  Every entry of magnitude below the smallest normal
double, 2.2e-308, is set to 0 (``flush_subnormal``; the heat semigroup
repeats it after its e^{-mu t} scaling).  Far-tail entries of the
N = 800 spline propagators are subnormal, and a BLAS product that meets
them runs 1.6-1.8x slower (OpenBLAS, one thread).  The flush leaves
every product whose result exceeds about 1e-290 bit for bit unchanged:
a dropped term w_ij v_j is below 2.3e-308 |v_j|, less than half an ulp
of such a result.
It is not sparsification: only entries below the smallest normal go, so
linear image-pair matrices stay nonnegative with row sums of at most 1
up to one ulp.

Accuracy.  A cell's Gaussian mass comes from the tail the cell lies in,
so far cells keep their relative accuracy and linear image-pair matrices
have no negative entries.  The moments of (y - left)^k are a binomial
expansion about the kernel centre, ill-conditioned in the cell offset:
at L = 20, N = 800 the relative error against a 40-digit assembly is
6e-14 / 3e-12 / 2e-11 (linear) and 4e-11 / 5e-8 / 1.4e-6 (spline) at
a = 0.04 / 1 / 5.

Special functions.  ``erf`` and the normal CDF evaluate libm's erf and
erfc element by element; the spline solve repeats LAPACK dgtsv bit for
bit (the tests check against scipy, which the package does not import).
"""

from __future__ import annotations

import math
import weakref
from math import comb

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParameterError, float_array, positive
from .grid import Grid, lattice_steps

__all__ = ["operator_matrix", "shared_matrix", "flush_subnormal", "gaussian_pdf", "erf"]

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_TINY = np.finfo(float).tiny
# Rows per in-place update: 64 rows of an N = 800 matrix are 0.4 MB, so a
# block's temporaries stay a small fraction of the matrix.
_ROW_BLOCK = 64
_SQRT1_2 = math.sqrt(0.5)
# Finished matrices by every input that sets their bits, held weakly.
_SHARED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _libm(f, x: np.ndarray) -> np.ndarray:
    """``f`` from ``math`` (libm) applied element by element."""
    return np.fromiter(map(f, x.reshape(-1).tolist()), float, x.size).reshape(x.shape)


def erf(x) -> np.ndarray:
    """The error function, from libm."""
    return _libm(math.erf, float_array("x", x))


def _ndtr_pair(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The standard normal CDF at z and at -z, as 0.5 erfc(-+z / sqrt 2):
    each keeps its tail's relative accuracy."""
    x = z * _SQRT1_2
    return 0.5 * _libm(math.erfc, -x), 0.5 * _libm(math.erfc, x)


def flush_subnormal(w: np.ndarray) -> np.ndarray:
    """Zero, in place and a row block at a time, every entry of ``w`` whose
    magnitude is below the smallest normal double; return ``w``."""
    for i in range(0, len(w), _ROW_BLOCK):
        block = w[i:i + _ROW_BLOCK]
        block[np.abs(block) < _TINY] = 0.0
    return w


def gaussian_pdf(u: np.ndarray, sigma: float) -> np.ndarray:
    return _INV_SQRT_2PI / sigma * np.exp(-(u * u) / (2.0 * sigma * sigma))


def _interval_moments(sigma: float, edges: np.ndarray) -> list[np.ndarray]:
    """Moments I_k = int_a^b u^k N(0, sigma^2)(u) du for k < 4 over the
    intervals [a, b] = [edges[k], edges[k + 1]].

    Closed forms; recurrence I_k = sigma^2 (a^{k-1} pdf(a) - b^{k-1} pdf(b))
    + (k-1) sigma^2 I_{k-2}.
    """
    a, b = edges[:-1], edges[1:]
    pdf = gaussian_pdf(edges, sigma)
    pa, pb = pdf[:-1], pdf[1:]
    s2 = sigma * sigma
    # the mass from the tail the interval lies in, so a far interval keeps
    # its relative accuracy instead of the 1e-16 left over from 1 - 1
    z = edges / sigma
    lower, upper = _ndtr_pair(z)
    i0 = np.where(z[:-1] + z[1:] > 0, upper[:-1] - upper[1:], lower[1:] - lower[:-1])
    i1 = s2 * (pa - pb)
    i2 = s2 * i0 + s2 * (a * pa - b * pb)
    return [i0, i1, i2, s2 * (a * a * pa - b * b * pb) + 2.0 * s2 * i1]


def _cell_weights(edges: np.ndarray, dx: float, sigma: float) -> list[np.ndarray]:
    """Per-cell weight tables for the cells [edges[k], edges[k + 1]].

    ``edges`` are consecutive lattice points measured from the kernel
    centre.  Returns the weights each cell gives its left and right node
    under linear interpolation, then the weights it gives the spline
    second derivatives there, divided by dx.
    """
    lo = edges[:-1]
    base = _interval_moments(sigma, edges)
    # moments of (y - left)^k: binomial expansion of (u - lo)^k
    m = [sum(comb(k, j) * (-lo) ** (k - j) * base[j] for j in range(k + 1)) for k in range(4)]
    return [
        m[0] - m[1] / dx,
        m[1] / dx,
        -m[1] / 3.0 + m[2] / (2.0 * dx) - m[3] / (6.0 * dx * dx),
        -m[1] / 6.0 + m[3] / (6.0 * dx * dx),
    ]


class _Term:
    """One Gaussian term whose argument at node n of row i is
    origin + (first + starts[i] + n) dx, gathered a slice of rows at a time
    from its per-cell weight tables (``_cell_weights`` over the offsets
    first - 1 ... first + max(starts) + n_nodes).

    Each row is a window of one table over the offsets, so the matrix is
    Toeplitz (starts falling with the row) or Hankel (rising).
    """

    def __init__(self, starts, n_nodes, left, right, c0, c1):
        self.starts, self.n_nodes = starts, n_nodes
        self.left, self.right = left, right
        self.inner = left[1:] + right[:-1]
        self.curv = c0[1:] + c1[:-1]

    def linear(self, rows: slice) -> np.ndarray:
        """Linear weights of the rows, (rows, n_nodes)."""
        s = self.starts[rows]
        w = sliding_window_view(self.inner, self.n_nodes)[s]
        w[:, 0] = self.left[s + 1]  # the end nodes have one cell each
        w[:, -1] = self.right[s + self.n_nodes - 1]
        return w

    def curvature(self, rows: slice) -> np.ndarray:
        """Spline curvature weights of the interior nodes, (rows, n_nodes - 2)."""
        return sliding_window_view(self.curv, self.n_nodes - 2)[self.starts[rows] + 1]


def _spline_solve(b: np.ndarray, dx: float) -> np.ndarray:
    """Solve A x = b in place, A the spline system (diagonal 2 dx / 3,
    off-diagonals dx / 6), by LAPACK dgtsv's operations without row swaps:
    A is diagonally dominant.  dgtsv's zero fill-in term is left out; it
    could only change the sign of a zero.
    """
    off, diag = dx / 6.0, 2.0 * dx / 3.0
    rows = list(b)
    d = [diag]
    buf = np.empty_like(rows[0])
    for i in range(len(rows) - 1):
        fact = off / d[i]
        d.append(diag - fact * off)
        np.multiply(rows[i], fact, buf)
        np.subtract(rows[i + 1], buf, rows[i + 1])
    np.divide(rows[-1], d[-1], rows[-1])
    for i in range(len(rows) - 2, -1, -1):
        np.multiply(rows[i + 1], off, buf)
        np.subtract(rows[i], buf, rows[i])
        np.divide(rows[i], d[i], rows[i])
    return b


def operator_matrix(
    out_x: np.ndarray,
    in_nodes: np.ndarray,
    a: float,
    kind: str = "image_pair",
    order: str = "linear",
) -> np.ndarray:
    """Assemble the dense matrix of the smoothing operator.

    Parameters
    ----------
    out_x : array
        Points where the result is evaluated; each must lie a whole number
        of node spacings from ``in_nodes[0]``.
    in_nodes : array
        Uniform nodes carrying the input samples; integration runs over
        ``[in_nodes[0], in_nodes[-1]]``.
    a : float
        Gaussian width parameter (> 0); the kernel is ``G_a``.
    kind : {"image_pair", "free"}
        Two-term odd-image kernel or the free Gaussian alone.
    order : {"linear", "spline"}
        Interpolation applied to the input samples.

    Returns
    -------
    numpy.ndarray of shape ``(len(out_x), len(in_nodes))``.
    """
    positive("gaussian width parameter a", a)
    if kind not in ("image_pair", "free"):
        raise ParameterError(f"unknown kernel kind {kind!r}")
    if order not in ("linear", "spline"):
        raise ParameterError(f"unknown interpolation order {order!r}")
    nodes = float_array("in_nodes", in_nodes).reshape(-1)
    n_nodes = nodes.size
    if n_nodes < 2:
        raise ParameterError("need at least two input nodes")
    dx = (nodes[-1] - nodes[0]) / (n_nodes - 1)
    bad = lattice_steps(nodes - nodes[0], dx, "offset of input node") != np.arange(n_nodes)
    if bad.any():
        node = nodes[np.argmax(bad)]
        raise ParameterError(f"input nodes must be uniformly spaced, node {node} is not")
    x = float_array("out_x", out_x).reshape(-1)
    p = lattice_steps(x - nodes[0], dx, "offset of output point", minimum=None)
    spline = order == "spline" and n_nodes > 2
    sigma = np.sqrt(2.0 * a)

    # direct term G_a(x - y): argument (n - p_i) dx, a Toeplitz matrix;
    # image term G_a(x + y): argument 2 in_nodes[0] + (n + p_i) dx, a Hankel matrix
    hi = int(p.max(initial=0))
    layout = [(0.0, -hi, hi - p)]
    if kind == "image_pair":
        lo = int(p.min(initial=0))
        layout.append((2.0 * nodes[0], lo, p - lo))
    edges = [origin + np.arange(first - 1, first + int(starts.max(initial=0)) + n_nodes + 1) * dx
             for origin, first, starts in layout]
    # One moment evaluation covers both terms, so an |edge| they share
    # costs one normal CDF; the cell across the seam is never read.
    tables = _cell_weights(np.concatenate(edges), dx, sigma)
    seam = edges[0].size
    direct = _Term(layout[0][2], n_nodes, *(t[:seam - 1] for t in tables))
    image = None
    if kind == "image_pair":
        image = _Term(layout[1][2], n_nodes, *(t[seam:] for t in tables))
    blocks = [slice(i, i + _ROW_BLOCK) for i in range(0, x.size, _ROW_BLOCK)]

    if spline:
        # Spline second derivatives at the interior nodes are A^{-1} R f, with
        # A the natural-spline tridiagonal system and R the second difference
        # over dx (its 1/dx already sits in g): add (A^{-1} g^T)^T R.  g is
        # solved before the linear table is gathered, so at most two
        # matrices are alive at once.
        g = direct.curvature(slice(None))
        if image is not None:
            for rows in blocks:
                g[rows] -= image.curvature(rows)
        # h in memory order, for unit-stride row blocks; g goes before w comes
        g = np.ascontiguousarray(g.T)
        h = np.ascontiguousarray(_spline_solve(g, dx).T)
        del g
    w = direct.linear(slice(None))
    for rows in blocks:
        if image is not None:
            w[rows] -= image.linear(rows)
        if spline:
            w[rows, :-2] += h[rows]
            w[rows, 1:-1] -= 2.0 * h[rows]
            w[rows, 2:] += h[rows]
        flush_subnormal(w[rows])
    return w


def shared_matrix(grid: Grid, a: float, order: str, mu: float | None = None) -> np.ndarray:
    """The read-only image-pair matrix H(a) on the grid's nodes, or with
    ``mu`` the killed propagator flush(e^{-mu a} H(a)): the array a live
    holder has, else a new one.  A killed propagator scales a live H(a) into
    a copy, else a fresh assembly in place: the same products either way."""
    key = (grid, float(a), order, mu)  # a grid's nodes are fixed by its length and N
    w = _SHARED.get(key)
    if w is None:
        h = _SHARED.get(key[:3] + (None,))
        if h is None:
            h = w = operator_matrix(grid.nodes, grid.nodes, a, kind="image_pair", order=order)
        if mu is not None:
            # the scaling can take a normal entry below the smallest normal
            # double, so the flush is repeated after it
            w = flush_subnormal(np.multiply(h, np.exp(-mu * a), out=h if h is w else None))
        w.setflags(write=False)
        _SHARED[key] = w
    return w
