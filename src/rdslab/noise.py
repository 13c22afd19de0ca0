"""Two-sided Wiener paths, the stationary pathwise integrator, and noise shapes.

A path is stored as one immutable base record on a uniform lattice plus an
origin index.  The time shift

    (theta_s w)(t) = w(t + s) - w(s)

is realized by moving the origin, so shifted paths share the base record
and compositions of shifts are bit-exact: every evaluation subtracts the
same base entry.  This makes the flow property of the shift, and every
identity built on it downstream, hold to the last bit rather than to a
tolerance.  One record may also stack independently seeded paths, m rows
each, every one with the bits of its own lone draw (``sample_wiener``).

The stationary integrator for a component with decay rate mu is

    z(theta_t w) = -mu * integral_{-s_cut}^0 e^{mu s} (theta_t w)(s) ds

evaluated by the trapezoid rule on the path lattice (``ou_series``, the
one evaluator).  Like the shift, the series is a property of the record:
one correlation of the whole base record per OUParams gives z at every
knot with a full window, every run, leg and shift on that record reads
it by index, and the record cap bounds it.  The window s_cut is chosen
with mu * s_cut >= 40 so the discarded tail weight e^{-mu s_cut} is
below 4e-18, i.e. invisible at double precision.  In stationarity each z
is centered Gaussian with variance 1/(2 mu).

Spatial noise shapes g_j vanish at the origin and decay; their second
derivatives are carried analytically so the forcing term of the
transformed equation needs no numerical differentiation.  ``noise_rows``
is the one map from shapes and z to the rows sum_j g_j(x) z_j(t) that the
conjugation subtracts and adds back.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, WindowExhaustedError, float_array, integer, positive, seeds
from .grid import lattice_steps

__all__ = [
    "WienerPath",
    "sample_wiener",
    "zero_wiener",
    "window_steps",
    "OUParams",
    "default_s_cut",
    "ou_series",
    "sde_residual",
    "temperedness_diagnostic",
    "empirical_decay_bound",
    "NoiseProfiles",
    "noise_rows",
]


@dataclass(frozen=True)
class WienerPath:
    """Sampled two-sided Wiener path, m components on a uniform lattice.

    Attributes
    ----------
    base_values : numpy.ndarray
        Shape (m, n) base record.  Never mutated; shifted paths share it.
    origin : int
        Index of the path's logical time zero within the base record.
    dt_knot : float
        Lattice spacing.
    """

    base_values: np.ndarray
    origin: int
    dt_knot: float
    # OUParams -> the record's OU series at every knot with a full window,
    # filled by ou_series and shared by every shift of the record
    _ou: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        v = float_array("base_values", self.base_values)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 2:
            raise ParameterError(f"base_values must be (m, n>=2), got shape {v.shape}")
        integer("origin", self.origin, 0, v.shape[1] - 1)
        positive("dt_knot", self.dt_knot)
        object.__setattr__(self, "base_values", v)
        v.setflags(write=False)

    @property
    def m(self) -> int:
        return self.base_values.shape[0]

    @property
    def t_lo(self) -> float:
        return -self.origin * self.dt_knot

    @property
    def t_hi(self) -> float:
        return (self.base_values.shape[1] - 1 - self.origin) * self.dt_knot

    def index_of(self, t):
        """Base index of lattice time t: an int for a scalar, an array for an array.

        Errors if a time is off-lattice or outside the window, naming the
        first such time.
        """
        t = float_array("time", t)
        idx = self.origin + lattice_steps(t, self.dt_knot, "time", minimum=None)
        outside = np.logical_or(idx < 0, idx >= self.base_values.shape[1])
        if outside.any():
            bad = float(t.flat[np.argmax(outside)])
            raise WindowExhaustedError(
                f"time {bad} outside sampled window [{self.t_lo}, {self.t_hi}]"
            )
        return idx

    def value(self, t) -> np.ndarray:
        """Path value w(t) - w(0), shape (m,) or (m, len(t)); exact zero at t = 0."""
        return self.knots()[:, self.index_of(t)]

    def shift(self, s: float) -> "WienerPath":
        """The shifted path theta_s w, sharing this path's base record."""
        shifted = WienerPath(self.base_values, self.index_of(s), self.dt_knot)
        object.__setattr__(shifted, "_ou", self._ou)
        return shifted

    def knots(self) -> np.ndarray:
        """Materialized logical values over the whole window, (m, n)."""
        return self.base_values - self.base_values[:, self.origin][:, None]


def window_steps(m: int, t_lo: float, t_hi: float, dt_path: float) -> tuple[int, int]:
    """Lattice steps (backward, forward) of the window [t_lo, t_hi]: the sampler's window rule."""
    integer("m", m, 1)
    positive("dt_path", dt_path)
    n_neg = -lattice_steps(t_lo, dt_path, "t_lo", minimum=None)
    n_pos = lattice_steps(t_hi, dt_path, "t_hi", minimum=None)
    if n_neg < 0 or n_pos < 0 or n_neg + n_pos == 0:
        raise ParameterError(f"window [{t_lo}, {t_hi}] must contain 0 with t_lo < t_hi")
    return n_neg, n_pos


def sample_wiener(
    m: int, t_lo: float, t_hi: float, dt_path: float, seed: int | Sequence[int]
) -> WienerPath:
    """Sample an m-component two-sided Wiener path on [t_lo, t_hi].

    t_lo <= 0 <= t_hi and both must be lattice multiples of dt_path.  The
    two half-axes use independent increment blocks; the forward block is
    drawn first, so enlarging the backward window does not change the
    forward samples for a fixed seed.

    ``seed`` is a nonnegative int or a non-empty sequence of them.  Member
    i of a sequence owns rows i*m ... i*m + m - 1 of one path, with the
    bits of a lone call.
    """
    n_neg, n_pos = window_steps(m, t_lo, t_hi, dt_path)
    members = seeds(seed)
    fwd, bwd = np.empty((len(members) * m, n_pos)), np.empty((len(members) * m, n_neg))
    for i, rng in enumerate(map(np.random.default_rng, members)):
        rng.standard_normal(out=fwd[i * m : i * m + m])
        rng.standard_normal(out=bwd[i * m : i * m + m])
    fwd *= math.sqrt(dt_path)
    bwd *= math.sqrt(dt_path)
    values = np.zeros((len(members) * m, n_neg + n_pos + 1))
    np.cumsum(fwd, axis=1, out=values[:, n_neg + 1 :])
    np.cumsum(bwd, axis=1, out=values[:, :n_neg][:, ::-1])
    return WienerPath(values, n_neg, dt_path)


def zero_wiener(m: int, t_lo: float, t_hi: float, dt_path: float) -> WienerPath:
    """Identically-zero path on the given window: the noise-free driving path.

    The window obeys the same rules as for :func:`sample_wiener`.
    """
    n_neg, n_pos = window_steps(m, t_lo, t_hi, dt_path)
    return WienerPath(np.zeros((int(m), n_neg + n_pos + 1)), n_neg, dt_path)


@dataclass(frozen=True)
class OUParams:
    """Stationary integrator parameters: decay rate and history window."""

    mu: float
    s_cut: float

    def __post_init__(self) -> None:
        # default_s_cut may fall short of 40 / mu by 1e-9 of a step, so by 1e-9 of 40 at most
        if positive("mu", self.mu) * positive("s_cut", self.s_cut) < 40.0 * (1.0 - 1e-9):
            raise ParameterError(
                f"mu * s_cut = {self.mu * self.s_cut:g} < 40; truncation tail not negligible"
            )


def default_s_cut(mu: float, dt_path: float) -> float:
    """Smallest lattice multiple of dt_path with mu * s_cut >= 40."""
    return math.ceil(40.0 / (mu * dt_path) - 1e-9) * dt_path


@functools.lru_cache(maxsize=32)
def _window_kernel(p: OUParams, dt: float) -> tuple[int, np.ndarray, float]:
    """Trapezoid weights times e^{mu s} on the history window lattice, and
    their sum; cached, since many paths share one window."""
    n_cut = int(math.ceil(p.s_cut / dt - 1e-9))
    s = -n_cut * dt + dt * np.arange(n_cut + 1)
    w = np.full(n_cut + 1, dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    ker = w * np.exp(p.mu * s)
    ker.setflags(write=False)
    return n_cut, ker, float(np.sum(ker))


def ou_series(path: WienerPath, p: OUParams, times) -> np.ndarray:
    """Stationary integrator at lattice times, shape (m, len(times)).

    A scalar time gives shape (m, 1).  Each value is the trapezoid sum
    over the history window.  The first call for ``p`` on a record
    correlates the whole base record once; every later call, at any
    times and on any shift of the record, indexes that one series, so a
    value's bits depend only on the base index of its time.
    """
    n_cut, ker, ker_mass = _window_kernel(p, path.dt_knot)
    idx = np.atleast_1d(path.index_of(times))
    if idx.size == 0:
        return np.empty((path.m, 0))
    if idx.min() < n_cut:
        raise WindowExhaustedError(
            f"stationary evaluation needs {n_cut} lattice points of history before each time"
        )
    series = path._ou.get(p)
    if series is None:
        v = path.base_values
        corr = np.array([np.correlate(row, ker, mode="valid") for row in v])
        series = path._ou[p] = -p.mu * (corr - v[:, n_cut:] * ker_mass)
        series.setflags(write=False)
    return series[:, idx - n_cut]


def sde_residual(path: WienerPath, p: OUParams, t0: float, t1: float) -> float:
    """Integrated-equation defect of the stationary process over [t0, t1].

    The process satisfies z(t1) - z(t0) + mu * integral z dt = w(t1) - w(t0)
    exactly; evaluating the time integral by the trapezoid rule on the
    lattice leaves a defect that shrinks O(dt_knot).  Returns the largest
    defect magnitude across components.
    """
    n0 = lattice_steps(t0, path.dt_knot, "t0", minimum=None)
    n1 = lattice_steps(t1, path.dt_knot, "t1", minimum=None)
    if n1 <= n0:
        raise ParameterError(f"empty interval [{t0}, {t1}]")
    t = path.dt_knot * np.arange(n0, n1 + 1)
    z = ou_series(path, p, t)
    w = path.value(t)
    zint = np.trapezoid(z, dx=path.dt_knot, axis=1)
    defect = (z[:, -1] - z[:, 0]) + p.mu * zint - (w[:, -1] - w[:, 0])
    return float(np.max(np.abs(defect)))


def temperedness_diagnostic(
    path: WienerPath, p: OUParams, beta: float, horizon: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Series e^{-beta t} * sum_j z_j(theta_{-t} w)^2 on t in [0, horizon].

    A tempered driver sends this to zero for every beta > 0; the series is
    the direct observable for that decay along one path.  Also returns the
    :func:`empirical_decay_bound` of [-horizon, 0], bit for bit, from the same series.
    """
    positive("beta", beta)
    n = lattice_steps(horizon, path.dt_knot, "horizon")
    t = path.dt_knot * np.arange(n + 1)
    z = ou_series(path, p, -t)
    amp = np.sum(z * z, axis=0)
    return t, np.exp(-beta * t) * amp, float(np.max(np.exp(-p.mu * t / 2.0) * amp))


def empirical_decay_bound(
    path: WienerPath, p: OUParams, t_lo: float, t_hi: float = 0.0
) -> float:
    """Windowed growth constant r_hat = sup e^{-mu |t| / 2} sum_j z_j(theta_t)^2.

    By construction sum_j z_j(theta_t w)^2 <= e^{mu |t| / 2} * r_hat for
    every lattice t in the window, which is the form the pullback
    estimates consume.
    """
    n_lo = lattice_steps(t_lo, path.dt_knot, "t_lo", minimum=None)
    n_hi = lattice_steps(t_hi, path.dt_knot, "t_hi", minimum=None)
    if n_hi < n_lo:
        raise ParameterError(f"empty window [{t_lo}, {t_hi}]")
    t = path.dt_knot * np.arange(n_lo, n_hi + 1)
    z = ou_series(path, p, t)
    return float(np.max(np.exp(-p.mu * np.abs(t) / 2.0) * np.sum(z * z, axis=0)))


# -- spatial noise shapes --------------------------------------------------


@dataclass(frozen=True)
class NoiseProfiles:
    """The first m shapes of the fixed family x^2 e^{-x}, x e^{-x^2} and
    sin(pi x / span) x e^{-x}, in that order; one Wiener component each."""

    m: int = 1
    span: float = 20.0

    def __post_init__(self) -> None:
        integer("m", self.m, 1, 3)
        positive("profile span", self.span)

    def values(self, x: np.ndarray) -> np.ndarray:
        """g_j(x), shape (m, len(x)); only the m rows returned are evaluated."""
        k = np.pi / self.span
        family = (
            lambda: x * x * np.exp(-x),
            lambda: x * np.exp(-x * x),
            lambda: np.sin(k * x) * x * np.exp(-x),
        )
        return np.vstack([g() for g in family[: self.m]])

    def second_derivatives(self, x: np.ndarray) -> np.ndarray:
        """g_j''(x) in closed form, shape (m, len(x))."""
        k = np.pi / self.span

        def sinbump() -> np.ndarray:
            e = np.exp(-x)
            s, c = np.sin(k * x), np.cos(k * x)
            return -k * k * s * x * e + 2.0 * k * c * (1.0 - x) * e + s * (x - 2.0) * e

        family = (
            lambda: (x * x - 4.0 * x + 2.0) * np.exp(-x),
            lambda: (4.0 * x ** 3 - 6.0 * x) * np.exp(-x * x),
            sinbump,
        )
        return np.vstack([g() for g in family[: self.m]])

    def sup_rss(self, x: np.ndarray) -> float:
        """sup over x of the root-sum-square profile magnitude."""
        g = self.values(x)
        return float(np.sqrt(np.max(np.sum(g * g, axis=0))))

    def sup_rss_second(self, x: np.ndarray) -> float:
        g = self.second_derivatives(x)
        return float(np.sqrt(np.max(np.sum(g * g, axis=0))))


def noise_rows(profile_rows: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Noise rows sum_j z_j(t) g_j(x), shape (n_times, n_nodes).

    profile_rows (m, n_nodes) holds the profiles g_j or their second
    derivatives on the nodes; z (m, n_times) is an :func:`ou_series`.  The
    sum over components is an explicit ordered loop, so every row depends
    only on its own column of z: rows built for different time sets agree
    bit for bit where the times agree.
    """
    z = float_array("z", z)
    if z.ndim != 2 or z.shape[0] != profile_rows.shape[0]:
        raise ParameterError(
            f"z has shape {z.shape}, expected ({profile_rows.shape[0]}, n_times) to match profiles"
        )
    rows = z[0][:, None] * profile_rows[0]
    rows += 0.0  # the bits of a sum started at +0.0, -0.0 included, with no zero-filled buffer
    for j in range(1, z.shape[0]):
        rows += z[j][:, None] * profile_rows[j]
    return rows
