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
    matrix for the image pair has nonnegative entries and row sums
    strictly below 1.  Operator-norm inequalities proved for the
    continuum operators then hold exactly for the matrix.  Used wherever
    a bound is asserted (dispersal operator, propagator decay checks,
    the time stepper).

``spline``
    Natural cubic spline, O(dx^4) on smooth data.  Used where accuracy
    is asserted (semigroup composition law, closed-form reproduction).
    Splines can overshoot rough data by a Lebesgue-type factor, which
    would break supremum-sharp inequalities, hence the linear path above.

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

Accuracy.  A cell's Gaussian mass comes from the tail the cell lies in,
so far cells keep their relative accuracy and linear image-pair matrices
have no negative entries.  The moments of (y - left)^k are a binomial
expansion about the kernel centre, ill-conditioned in the cell offset:
at L = 20, N = 800 the relative error against a 40-digit assembly is
6e-14 / 3e-12 / 2e-11 (linear) and 4e-11 / 5e-8 / 1.4e-6 (spline) at
a = 0.04 / 1 / 5.

Special functions.  ``erf`` and the normal CDF port cephes' erf, erfc and
ndtr to numpy with scipy.special's coefficients, operation order, branch
points and libm exp; the spline solve repeats LAPACK dgtsv.  Each matches
scipy bit for bit (the tests check), and the package does not import it.
"""

from __future__ import annotations

import math
from math import comb

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParameterError
from .grid import lattice_steps

__all__ = ["operator_matrix", "gaussian_pdf", "erf"]

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

# Cephes erf/erfc, as scipy.special evaluates them: highest degree first;
# Q, S and U have an implicit leading 1.
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = math.sqrt(0.5)
# (numerator, denominator) rows for _polyval.  A leading zero pads the
# shorter polynomial and a leading one is p1evl's implicit one, operation
# for operation: erf on [0, 1] is x T(x^2) / U(x^2); erfc is
# exp(-x^2) P(x) / Q(x) on [1, 8) and exp(-x^2) R(x) / S(x) beyond.
_TU = np.array([(0.0, *_T), (1.0, *_U)])[:, None]
_PQ = np.array([_P, (1.0, *_Q)])[:, None]
_RS = np.array([(0.0, *_R), (1.0, *_S)])[:, None]

def _polyval(x: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Horner's rule over the last axis of ``coef``, as cephes polevl does it."""
    y = coef[..., 0]
    for k in range(1, coef.shape[-1]):
        y = y * x + coef[..., k]
    return y


def _erf_small(x: np.ndarray) -> np.ndarray:
    """erf for |x| <= 1."""
    num, den = _polyval(x * x, _TU)
    return x * num / den


def _erfc(x: np.ndarray) -> np.ndarray:
    """erfc for x >= 0: 1 - erf below 1, then the P/Q and R/S fits, 0 once
    exp(-x^2) underflows."""
    y = np.zeros_like(x)
    small = x < 1.0
    y[small] = 1.0 - _erf_small(x[small])
    live = ~small & ~(x * x > _MAXLOG)
    t = x[live]
    # libm's exp, as cephes calls it: numpy's SIMD exp differs in the last bit
    e = np.fromiter(map(math.exp, (-t * t).tolist()), float, t.size)
    num, den = np.where(t < 8.0, _polyval(t, _PQ), _polyval(t, _RS))
    y[live] = e * num / den
    return y


def erf(x) -> np.ndarray:
    """The error function, bit for bit as ``scipy.special.erf`` (cephes)."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x).reshape(-1)
    big = ax > 1.0
    y = np.where(big, 1.0 - _erfc(np.where(big, ax, np.inf)), _erf_small(np.where(big, 0.0, ax)))
    return np.copysign(y.reshape(x.shape), x)


def _ndtr_pair(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The standard normal CDF at z and at -z, bit for bit as
    ``scipy.special.ndtr`` (cephes), from one erf or erfc per point."""
    x = z * _SQRT1_2
    ax = np.abs(x)
    near = ax < _SQRT1_2
    h = 0.5 * _erf_small(np.where(near, x, 0.0))
    tail = 0.5 * _erfc(np.where(near, np.inf, ax))
    lower = np.where(near, 0.5 + h, np.where(x > 0, 1.0 - tail, tail))
    upper = np.where(near, 0.5 - h, np.where(x > 0, tail, 1.0 - tail))
    return lower, upper


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


def _term(origin, first, starts, n_nodes, dx, sigma, spline):
    """Weights of one Gaussian term whose argument at node n of row i is
    origin + (first + starts[i] + n) dx.

    Each row is a window of one table over the offsets, so the result is
    Toeplitz (starts falling with the row) or Hankel (rising).  Returns
    the linear weights (rows, n_nodes) and, for the spline, the curvature
    weights of the interior nodes (rows, n_nodes - 2).
    """
    offsets = np.arange(first - 1, first + int(starts.max(initial=0)) + n_nodes + 1)
    left, right, c0, c1 = _cell_weights(origin + offsets * dx, dx, sigma)
    w = sliding_window_view(left[1:] + right[:-1], n_nodes)[starts]
    w[:, 0] = left[starts + 1]  # the end nodes have one cell each
    w[:, -1] = right[starts + n_nodes - 1]
    if not spline:
        return w, None
    return w, sliding_window_view(c0[1:] + c1[:-1], n_nodes - 2)[starts + 1]


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
    if not a > 0:
        raise ParameterError(f"gaussian width parameter a must be positive, got {a!r}")
    if kind not in ("image_pair", "free"):
        raise ParameterError(f"unknown kernel kind {kind!r}")
    if order not in ("linear", "spline"):
        raise ParameterError(f"unknown interpolation order {order!r}")
    nodes = np.asarray(in_nodes, dtype=float).reshape(-1)
    n_nodes = nodes.size
    if n_nodes < 2:
        raise ParameterError("need at least two input nodes")
    dx = (nodes[-1] - nodes[0]) / (n_nodes - 1)
    bad = lattice_steps(nodes - nodes[0], dx, "offset of input node") != np.arange(n_nodes)
    if bad.any():
        node = nodes[np.argmax(bad)]
        raise ParameterError(f"input nodes must be uniformly spaced, node {node} is not")
    x = np.asarray(out_x, dtype=float).reshape(-1)
    p = lattice_steps(x - nodes[0], dx, "offset of output point", minimum=None)
    spline = order == "spline" and n_nodes > 2
    sigma = np.sqrt(2.0 * a)

    # direct term G_a(x - y): argument (n - p_i) dx, a Toeplitz matrix
    hi = int(p.max(initial=0))
    w, g = _term(0.0, -hi, hi - p, n_nodes, dx, sigma, spline)
    if kind == "image_pair":
        # image term G_a(x + y): argument 2 in_nodes[0] + (n + p_i) dx, a Hankel matrix
        lo = int(p.min(initial=0))
        w_img, g_img = _term(2.0 * nodes[0], lo, p - lo, n_nodes, dx, sigma, spline)
        w -= w_img
        if spline:
            g -= g_img
    if not spline:
        return w

    # spline second derivatives at the interior nodes are A^{-1} R f, with
    # A the natural-spline tridiagonal system and R the second difference
    # over dx (its 1/dx already sits in g): add (A^{-1} g^T)^T R
    h = _spline_solve(np.ascontiguousarray(g.T), dx).T
    w[:, :-2] += h
    w[:, 1:-1] -= 2.0 * h
    w[:, 2:] += h
    return w
