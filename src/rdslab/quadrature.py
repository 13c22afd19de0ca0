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
"""

from __future__ import annotations

from math import comb

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import erf

from .errors import ParameterError

__all__ = ["operator_matrix", "gaussian_pdf", "gaussian_cdf"]

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gaussian_pdf(u: np.ndarray, sigma: float) -> np.ndarray:
    return _INV_SQRT_2PI / sigma * np.exp(-(u * u) / (2.0 * sigma * sigma))


def gaussian_cdf(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + erf(z / _SQRT2))


def _interval_moments(sigma: float, a: np.ndarray, b: np.ndarray, n: int) -> list[np.ndarray]:
    """Moments I_k = int_a^b u^k N(0, sigma^2)(u) du for k < n.

    Closed forms; recurrence I_k = sigma^2 (a^{k-1} pdf(a) - b^{k-1} pdf(b))
    + (k-1) sigma^2 I_{k-2}.
    """
    pa = gaussian_pdf(a, sigma)
    pb = gaussian_pdf(b, sigma)
    s2 = sigma * sigma
    out = [gaussian_cdf(b / sigma) - gaussian_cdf(a / sigma)]
    if n > 1:
        out.append(s2 * (pa - pb))
    if n > 2:
        out.append(s2 * out[0] + s2 * (a * pa - b * pb))
    if n > 3:
        out.append(s2 * (a * a * pa - b * b * pb) + 2.0 * s2 * out[1])
    if n > 4:
        raise ParameterError("moment order > 4 not implemented")
    return out


def _local_moments(
    x: np.ndarray, left: np.ndarray, right: np.ndarray, a: float, sign: float, n: int
) -> list[np.ndarray]:
    """Moments of (y - left)^k against G_a(x - sign*y) over [left, right].

    Shapes broadcast: ``x`` is a column of output points, ``left``/``right``
    a row of interval ends.  Returns n arrays of shape (len(x), n_intervals).
    """
    sigma = np.sqrt(2.0 * a)
    if sign > 0:
        # u = y - x in [left - x, right - x]; y - left = u + (x - left)
        lo, hi, d = left - x, right - x, x - left
    else:
        # kernel G_a(x + y): u = y + x; y - left = u - (x + left)
        lo, hi, d = left + x, right + x, -(x + left)
    base = _interval_moments(sigma, lo, hi, n)
    out = []
    for k in range(n):
        acc = np.zeros(np.broadcast_shapes(d.shape, base[0].shape))
        # binomial expansion of (u + d)^k
        for m in range(k + 1):
            acc += comb(k, m) * d ** (k - m) * base[m]
        out.append(acc)
    return out


def _pair_moments(x: np.ndarray, left: np.ndarray, right: np.ndarray, a: float, kind: str, n: int):
    direct = _local_moments(x, left, right, a, +1.0, n)
    if kind == "free":
        return direct
    image = _local_moments(x, left, right, a, -1.0, n)
    return [d - i for d, i in zip(direct, image)]


def _natural_spline_second_derivative_map(n_nodes: int, dx: float) -> np.ndarray:
    """Dense map from node samples to spline second derivatives at nodes.

    Natural end conditions: rows 0 and n-1 are zero.
    """
    if n_nodes < 3:
        return np.zeros((n_nodes, n_nodes))
    n_int = n_nodes - 2
    ab = np.zeros((3, n_int))
    ab[0, 1:] = dx / 6.0
    ab[1, :] = 2.0 * dx / 3.0
    ab[2, :-1] = dx / 6.0
    rhs = np.zeros((n_int, n_nodes))
    idx = np.arange(n_int)
    rhs[idx, idx] = 1.0 / dx
    rhs[idx, idx + 1] = -2.0 / dx
    rhs[idx, idx + 2] = 1.0 / dx
    interior = solve_banded((1, 1), ab, rhs)
    full = np.zeros((n_nodes, n_nodes))
    full[1:-1, :] = interior
    return full


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
        Points where the result is evaluated.
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
    nodes = np.asarray(in_nodes, dtype=float)
    x = np.asarray(out_x, dtype=float).reshape(-1, 1)
    n_nodes = nodes.size
    if n_nodes < 2:
        raise ParameterError("need at least two input nodes")
    steps = np.diff(nodes)
    dx = steps[0]
    if not np.allclose(steps, dx, rtol=1e-9, atol=0.0):
        raise ParameterError("input nodes must be uniformly spaced")

    left = nodes[:-1][None, :]
    right = nodes[1:][None, :]
    n_mom = 2 if order == "linear" else 4
    mom = _pair_moments(x, left, right, a, kind, n_mom)

    n_out = x.shape[0]
    w = np.zeros((n_out, n_nodes))
    if order == "linear":
        # p(y) = f_j + (f_{j+1} - f_j) (y - y_j) / dx on each cell
        w[:, :-1] += mom[0] - mom[1] / dx
        w[:, 1:] += mom[1] / dx
        return w

    t2 = _natural_spline_second_derivative_map(n_nodes, dx)
    # cell coefficients as linear maps of the samples
    p_b = np.zeros((n_nodes - 1, n_nodes))
    idx = np.arange(n_nodes - 1)
    p_b[idx, idx] = -1.0 / dx
    p_b[idx, idx + 1] = 1.0 / dx
    p_b -= (dx / 6.0) * (2.0 * t2[:-1, :] + t2[1:, :])
    p_c = t2[:-1, :] / 2.0
    p_d = (t2[1:, :] - t2[:-1, :]) / (6.0 * dx)

    w[:, :-1] += mom[0]
    w += mom[1] @ p_b
    w += mom[2] @ p_c
    w += mom[3] @ p_d
    return w
