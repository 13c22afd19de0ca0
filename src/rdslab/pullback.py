"""Pullback experiments: absorbing ball, flow-property residual, stationary state.

Pullback evaluation fixes the observation time at 0 and starts the run
ever earlier along the backward-shifted driver: the state observed is
Φ(t, shift(-t) w, data).  As t grows the observed state forgets its data
and settles onto a random quantity attached to the path alone — the
random stationary state — provided the decay rate beats the delayed
feedback.  A pullback run returns its terminal segment, the history
window [-tau, 0] at observation time 0; callers take the norms they need
from it.  A batch steps in a window of a few delay blocks
(:meth:`DelaySolver.terminal_segments`); a lone history's trajectory is
freed as soon as its segment, a copy, is taken.  Runs of the original
state u subtract on entry, and add back on exit, the field rows that
:meth:`DelaySolver.field_rows` forms from :meth:`DelaySolver.noise_series`
on the two history windows, the one route from a path to noise rows.

Two explicit constants turn the abstract estimates into checkable
numbers.  ``empirical_decay_bound`` supplies r_hat with

    sum_j z_j(shift(u) w)^2 <= e^{mu |u| / 2} * r_hat

on the whole sampled window, by construction.  The profile constant

    c = [ sup_x rss(g'') + eps * lip * e^{mu tau / 4} * sup_x rss(g) ]
        * max(1, r_hat^{-1/2})

is sized so that c * r_hat simultaneously dominates the Laplacian-noise
forcing integral and the delayed-feedback noise contribution: each field
row is bounded via Cauchy-Schwarz by its rss profile times rss(z), and
rss(z) <= (e^{mu |u| / 2} r_hat)^{1/2} <= e^{mu |u| / 4} * max(r_hat,
r_hat^{1/2}); the max(1, r_hat^{-1/2}) factor converts the square root
into the linear r_hat the radius formula consumes.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConditionViolatedError, float_array, nonnegative
from .grid import Grid, Segment, lattice_steps, segment_co_norm, sup_norm
from .model import ModelParams
from .noise import OUParams, WienerPath, default_s_cut, empirical_decay_bound
from .solver import DelaySolver

__all__ = [
    "DerivedConstants",
    "profile_constant",
    "derived_constants",
    "pullback_bound",
    "absorbing_radius",
    "transient_envelope",
    "pullback_conjugated",
    "pullback_state",
    "advance_state",
    "cocycle_residual",
    "FixedPointReport",
    "fixed_point_estimate",
]


@dataclass(frozen=True)
class DerivedConstants:
    """Concrete constants feeding the absorbing-radius formula.

    c combines the noise-profile magnitudes as in the module docstring;
    r_hat is the empirical windowed growth constant of the stationary
    noise.
    """

    c: float
    r_hat: float

    def __post_init__(self) -> None:
        nonnegative("c", self.c)
        nonnegative("r_hat", self.r_hat)


def profile_constant(params: ModelParams, grid: Grid) -> float:
    """Raw profile magnitude sup rss(g'') + eps*lip*e^{mu tau/4} sup rss(g)."""
    x = grid.nodes
    return params.profiles.sup_rss_second(x) + params.feedback_lipschitz * math.exp(
        params.mu * params.tau / 4.0
    ) * params.profiles.sup_rss(x)


def derived_constants(
    params: ModelParams,
    grid: Grid,
    path: WienerPath,
    window_lo: float,
) -> DerivedConstants:
    """Measure r_hat on [window_lo, 0] and size c accordingly."""
    oup = OUParams(params.mu, default_s_cut(params.mu, path.dt_knot))
    r_hat = empirical_decay_bound(path, oup, window_lo, 0.0)
    base = profile_constant(params, grid)
    c = base * max(1.0, r_hat ** -0.5) if r_hat > 0 else base
    return DerivedConstants(c=c, r_hat=r_hat)


def pullback_bound(params: ModelParams, consts: DerivedConstants, psi: Segment) -> float:
    """A-priori sup bound for every pullback run from psi:

        sup |v(t, shift(-t) w, psi)| <= sup |psi(0)| + (eps M + c r_hat) * 2 / mu,

    where eps M bounds the delayed feedback eps * Disp[f] (|f| <= M and
    Disp does not amplify the sup norm).
    """
    forcing = params.epsilon * params.nonlinearity.bound
    return sup_norm(psi.frame(psi.n_frames - 1)) + (forcing + consts.c * consts.r_hat) * 2.0 / params.mu


def absorbing_radius(params: ModelParams, consts: DerivedConstants) -> float:
    """Radius of the pullback absorbing ball.

    Requires the decay-dominates-feedback condition
    eps * lip * e^{mu tau} < mu; refuses otherwise, because the formula's
    denominator changes sign and the ball ceases to exist.
    """
    if not params.absorbing_condition:
        raise ConditionViolatedError(
            "absorbing ball undefined: " + params.describe_conditions()
        )
    growth = params.feedback_lipschitz * params.delay_growth
    head = 2.0 * consts.c * params.delay_growth * consts.r_hat
    tail = (
        consts.c
        * growth
        / (params.mu - growth)
        * math.exp(-growth)
        * consts.r_hat
    )
    return head + tail


def transient_envelope(params: ModelParams, initial_norm: float, t: float) -> float:
    """Decay envelope of the data-dependent transient under the absorbing
    condition: initial_norm * e^{-(mu - eps*lip*e^{mu tau}) t}."""
    rate = params.mu - params.feedback_lipschitz * params.delay_growth
    return initial_norm * math.exp(-rate * t)


# -- pullback runs -----------------------------------------------------------


def pullback_steps(t, dt: float, m: int):
    """Steps of dt in pullback time t, a scalar or an array: whole, and more
    than the m steps of the delay."""
    return lattice_steps(t, dt, "pullback time t", minimum=m + 1)


def _terminal_segments(
    solver: DelaySolver, psi: Segment | Sequence[Segment], path: WienerPath, horizon: float
) -> list[Segment]:
    """Terminal segments of one solve, or of one windowed batch of a sequence."""
    if isinstance(psi, Segment):
        return [solver.solve(psi, path, horizon).terminal_segment]
    return solver.terminal_segments(psi, path, horizon)


def _one_or_all(psi: Segment | Sequence[Segment], results: list):
    return results[0] if isinstance(psi, Segment) else results


def pullback_conjugated(
    solver: DelaySolver, psi: Segment | Sequence[Segment], path: WienerPath, t: float
) -> Segment | list[Segment]:
    """Terminal segment of the pullback run of the conjugated field v from
    fixed history psi.

    A sequence of histories is advanced as one batch and gives one
    segment per member, in order.
    """
    pullback_steps(t, solver.cfg.dt, solver.delay_steps)
    return _one_or_all(psi, _terminal_segments(solver, psi, path.shift(-t), t))


def _reconstruct(
    solver: DelaySolver, phi: Segment | Sequence[Segment], path: WienerPath, horizon: float
) -> list[Segment]:
    """u-segments at the horizon: subtract the solver's noise rows on
    [-tau, 0] from phi, integrate v, and add the rows on [horizon - tau,
    horizon] to the terminal frames.  A row depends only on the base index
    of its time, so these are the whole run's rows bit for bit."""
    z_in = solver.field_rows(solver.noise_series(path, 0.0))
    if isinstance(phi, Segment):
        entry = Segment(phi.grid, phi.tau, phi.dt, phi.values - z_in)
    else:
        entry = [Segment(p.grid, p.tau, p.dt, p.values - z_in) for p in phi]
    z_out = solver.field_rows(solver.noise_series(path.shift(horizon), 0.0))
    return [
        Segment(v.grid, v.tau, v.dt, v.values + z_out)
        for v in _terminal_segments(solver, entry, path, horizon)
    ]


def pullback_state(
    solver: DelaySolver, phi: Segment | Sequence[Segment], path: WienerPath, t: float
) -> Segment | list[Segment]:
    """Terminal segment of the pullback run of the original state u from
    history phi.

    Subtracts the solver's noise rows on the initial window of the
    shifted path, integrates v, and adds the rows back on exit.  A
    sequence of histories is advanced as one batch, one segment per member.
    """
    pullback_steps(t, solver.cfg.dt, solver.delay_steps)
    return _one_or_all(phi, _reconstruct(solver, phi, path.shift(-t), t))


def advance_state(
    solver: DelaySolver, phi: Segment, path: WienerPath, horizon: float
) -> Segment:
    """Advance a u-segment by the solution map along the given path."""
    return _reconstruct(solver, phi, path, horizon)[0]


# -- structural checks --------------------------------------------------------


def _co_distance(a: Segment, b: Segment) -> float:
    """Segment co-norm of the frame-by-frame difference a - b."""
    return segment_co_norm(Segment(a.grid, a.tau, a.dt, a.values - b.values))


def cocycle_legs(t: float, s: float, dt: float) -> list[int]:
    """Steps of dt in the legs t and s of :func:`cocycle_residual`: whole,
    and at least one in a leg it solves, a positive one."""
    return [lattice_steps(v, dt, k, minimum=int(float_array(k, v) > 0)) for k, v in zip("ts", (t, s))]


def cocycle_residual(
    solver: DelaySolver, psi: Segment, path: WienerPath, t: float, s: float
) -> tuple[float, float]:
    """Segment co-norm of Φ(t+s, w, psi) minus Φ(t, shift(s) w, Φ(s, w, psi)),
    and the sup norm of the direct run's terminal frame.

    t = 0 or s = 0 reduce to the identity property: residual 0, and only
    the direct run is integrated.  For positive lattice t, s the two sides
    execute the identical step arithmetic on the same lattice, so the
    residual is zero to the last bit; the return value is the measured
    difference, not an assumed one.  The direct side steps in windows, the
    legs in whole stacks, so the residual also pins the window to the
    stack.  The sup norm tells apart runs the zero residual cannot.
    """
    cocycle_legs(t, s, solver.cfg.dt)
    direct = solver.terminal_segments([psi], path, s + t)[0] if s + t > 0.0 else psi
    direct_sup = sup_norm(direct.frame(direct.n_frames - 1))
    if t == 0.0 or s == 0.0:
        return 0.0, direct_sup
    first = solver.solve(psi, path, s).terminal_segment
    second = solver.solve(first, path.shift(s), t).terminal_segment
    return _co_distance(direct, second), direct_sup


@dataclass(frozen=True)
class FixedPointReport:
    """Pullback convergence record toward the random stationary state."""

    times: tuple[float, ...]
    pair_distances: tuple[float, ...]
    successive_distances: tuple[float, ...]
    unit_factor: float
    stationarity_gap: float


def _fit_unit_factor(times: np.ndarray, dists: np.ndarray) -> float:
    """Per-unit-time factor from a log-linear fit over the final half.

    Distances at or below the floor of double precision are excluded;
    the fit needs at least two usable points.
    """
    keep = dists > 1e-14 * max(1.0, float(dists[0]))
    times, dists = times[keep], dists[keep]
    if times.size < 2:
        return 0.0
    half = times.size // 2
    slope = np.polyfit(times[half - 1 :], np.log(dists[half - 1 :]), 1)[0]
    return float(np.exp(slope))


def fixed_point_times(horizon: float, dt: float, m: int) -> np.ndarray:
    """The pullback times 1, 2, ..., horizon of :func:`fixed_point_estimate`:
    three units at least, each a pullback time at m steps of dt per delay."""
    times = np.arange(1.0, lattice_steps(horizon, 1.0, "horizon", minimum=3) + 1.0)
    pullback_steps(times, dt, m)
    return times


def fixed_point_estimate(
    solver: DelaySolver,
    phi1: Segment,
    phi2: Segment,
    path: WienerPath,
    horizon: float,
) -> FixedPointReport:
    """Estimate the random stationary state by deepening pullback runs.

    Runs both initial histories at pullback times 1, 2, ..., horizon;
    reports the distance series between the two runs and between
    successive snapshots of the first, the fitted per-unit-time
    contraction factor, and a stationarity gap: the estimate at the
    unit-shifted path, advanced one unit by the solution map, must land
    on the deepest snapshot of the first run, the estimate at the base
    path.

    The convergence guarantee needs tau < 1 and mu (1 - tau) > eps*lip.
    The gate is unconditional: outside that regime ConditionViolatedError
    is raised before any run.
    """
    if not solver.params.contraction_condition:
        raise ConditionViolatedError(
            "stationary-state convergence not guaranteed: "
            + solver.params.describe_conditions()
        )
    times = fixed_point_times(horizon, solver.cfg.dt, solver.delay_steps)
    # One batch per depth: both histories share the path and the horizon.
    segs1, segs2 = zip(*(pullback_state(solver, [phi1, phi2], path, t) for t in times))
    pair = np.array([_co_distance(a, b) for a, b in zip(segs1, segs2)])
    # Independent estimate at the unit-shifted path, then one-unit advance.
    prev = pullback_state(solver, phi2, path.shift(-1.0), float(times[-1] - 1.0))
    advanced = advance_state(solver, prev, path.shift(-1.0), 1.0)
    return FixedPointReport(
        times=tuple(float(t) for t in times),
        pair_distances=tuple(float(d) for d in pair),
        successive_distances=tuple(_co_distance(a, b) for a, b in zip(segs1[:-1], segs1[1:])),
        unit_factor=_fit_unit_factor(times, pair),
        stationarity_gap=_co_distance(advanced, segs1[-1]),
    )
