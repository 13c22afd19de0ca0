"""Method-of-steps integrator for the noise-conjugated delayed evolution.

Subtracting the stationary noise field turns the stochastic problem for u
into a pathwise problem for v = u - (noise field): v obeys

    dv/dt = v_xx - mu v
            + eps * Disp[ f( v(t - tau, .) + noise field at t - tau ) ]
            + (Laplacian noise field at t),        v(t, 0) = 0,

driven by one sampled path.  Because the delayed coupling reads the state
only at t - tau, the mild (variation-of-constants) form advances
explicitly once the history segment is known; with m = tau/dt steps per
delay the recursion is

    v_{k+1} = S(dt) v_k + dt * S(dt/2) [ eps Disp f(v_{k-m} + Z_{k-m}) + Q_k ]

where Z_k and Q_k are the noise field and its Laplacian on the lattice,
both from :meth:`DelaySolver.noise_series`; the pullback module moves u
to v and back with those same Z rows.  The S(dt/2) factor is the
midpoint weighting of the Duhamel integral; the forcing itself is read
at the left lattice point because the driving path exists only on the
lattice.  The scheme is first order in dt.

Propagator matrices use spline product integration: chaining a step
matrix thousands of times amplifies any interpolation bias by 1/dt, and
the cubic path keeps that bias at the 1e-8 level where the linear path
would lose three digits.  The dispersal matrix stays on the linear path,
whose nonnegativity makes the sup-norm contraction of the nonlocal term
exact; its interpolation error enters only through the dt-weighted
forcing sum and stays O(dx^2) without amplification.

The recursion runs on a (frames, B, nodes) stack: B histories sharing one
path and horizon advance together, in delay blocks of m steps (the method
of steps).  Steps k0 .. k0+m-1 read only frames k0 .. k0+m-1, all final
once frame k0+m is, so their forcing is formed at once, each product
still one BLAS call per frame: BLAS may round a row of one GEMM
differently with the GEMM's row count and the row's place in it, so a
GEMM over a whole block would tie the bits to the block alignment, which
a restart shifts.  A batch of one is exactly the matrix-vector arithmetic
above; a larger batch may round a member differently in the last bits, so
batch composition must follow from the config alone, never scheduling.

Everything downstream leans on two exactness properties of this module:
restarting from a stored segment reproduces the continued run bit for
bit (the flow property), and Picard iteration of the same recursion
reaches the method-of-steps trajectory exactly after ceil(T/tau) sweeps
because each sweep extends the region of correct delayed values by tau.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .grid import Field, Grid, Segment, lattice_steps
from .kernel import DispersalKernel
from .model import ModelParams
from .noise import OUParams, WienerPath, default_s_cut, noise_rows, ou_series
from .semigroup import DirichletHeatSemigroup

__all__ = [
    "SolverConfig",
    "Trajectory",
    "PicardReport",
    "DelaySolver",
    "contraction_interval",
    "evaluate_feedback",
]

_MODES = ("method-of-steps", "picard")
# Sweep cap of the Picard mode; picard_solve stops earlier at picard_tol.
_PICARD_MAX_SWEEPS = 50


@dataclass(frozen=True)
class SolverConfig:
    """Time stepping configuration.

    dt must divide tau exactly and be an integer multiple of the driving
    path's knot spacing.
    """

    dt: float
    mode: str = "method-of-steps"
    picard_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ParameterError(f"dt must be positive and finite, got {self.dt!r}")
        if self.mode not in _MODES:
            raise ParameterError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not (np.isfinite(self.picard_tol) and self.picard_tol > 0):
            raise ParameterError(f"picard_tol must be positive, got {self.picard_tol!r}")


@dataclass(frozen=True)
class Trajectory:
    """Lattice of solution fields from -tau through the horizon."""

    grid: Grid
    tau: float
    dt: float
    values: np.ndarray
    history_frames: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        m = lattice_steps(self.tau, self.dt, "trajectory tau")
        if v.ndim != 2 or v.shape[0] < m + 1 or v.shape[1] != self.grid.n_cells + 1:
            raise ParameterError(f"trajectory values have invalid shape {v.shape}")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "history_frames", m)
        v.setflags(write=False)

    @property
    def t_end(self) -> float:
        return (self.values.shape[0] - 1 - self.history_frames) * self.dt

    def frame_index(self, t: float) -> int:
        m = self.history_frames
        k = m + lattice_steps(t, self.dt, "trajectory time", minimum=-m)
        if k >= self.values.shape[0]:
            raise ParameterError(f"t = {t} is not a frame time of the trajectory")
        return k

    def field_at(self, t: float) -> Field:
        return Field(self.grid, self.values[self.frame_index(t)])

    def segment_at(self, t: float) -> Segment:
        """History window of length tau ending at lattice time t >= 0."""
        hi = self.frame_index(t)
        if hi < self.history_frames:
            raise ParameterError(f"t = {t} precedes the end of the initial history")
        return Segment(self.grid, self.tau, self.dt, self.values[hi - self.history_frames : hi + 1])

    @property
    def terminal_segment(self) -> Segment:
        return self.segment_at(self.t_end)


@dataclass(frozen=True)
class PicardReport:
    """Per-sweep convergence record of the fixed-point mode."""

    iterations: int
    changes: tuple[float, ...]
    ratios: tuple[float, ...]

    @property
    def max_ratio(self) -> float:
        return max(self.ratios) if self.ratios else 0.0


def contraction_interval(params: ModelParams) -> float | None:
    """Horizon below which one fixed-point sweep is a strict contraction.

    The sweep's sup-norm gain on horizon T is (eps*lip/mu)(1 - e^{-mu T}).
    If eps*lip <= mu the gain stays below 1 for every horizon and the
    result is None.  Otherwise the gain reaches 1 at horizon
    (1/mu) * ln(eps*lip / (eps*lip - mu)); the returned value

        T = (1/(2 mu)) * ln( eps*lip / (eps*lip - mu) )

    is half of that, so horizons up to T keep the gain strictly under 1.
    """
    eL = params.feedback_lipschitz
    if eL <= params.mu:
        return None
    return math.log(eL / (eL - params.mu)) / (2.0 * params.mu)


def picard_gain(params: ModelParams, horizon: float) -> float:
    """The sweep contraction bound (eps*lip/mu)(1 - e^{-mu*horizon})."""
    return params.feedback_lipschitz / params.mu * (1.0 - math.exp(-params.mu * horizon))


def _feedback(params: ModelParams, kernel: DispersalKernel, delayed, noise) -> np.ndarray:
    """eps * Disp[f(delayed + noise)] along the last axis, for any batch shape."""
    return params.epsilon * kernel.apply_values(params.nonlinearity.value(delayed + noise))


def evaluate_feedback(
    params: ModelParams,
    delayed_field: Field,
    delayed_noise: Field,
    kernel: DispersalKernel | None = None,
) -> Field:
    """The delayed forcing eps * Disp[f(delayed state + delayed noise)].

    Vanishes at x = 0 because the dispersal matrix's first row does.  The
    step kernel forms this forcing on whole delay blocks; this one-field
    form is kept as the deliberate cross-check that the fine-quadrature
    mild-solution oracle and the feedback tests build their expectations
    from.
    """
    if delayed_field.grid != delayed_noise.grid:
        raise ParameterError("delayed_field and delayed_noise grids differ")
    if kernel is None:
        kernel = DispersalKernel(params.alpha, delayed_field.grid)
    feedback = _feedback(params, kernel, delayed_field.values, delayed_noise.values)
    return Field(delayed_field.grid, feedback)


class DelaySolver:
    """Precomputed-matrix integrator for one (grid, params, config) triple.

    Matrices are built once and shared read-only by every solve.
    :meth:`_sweep` is the one step kernel, on (frames, B, nodes) stacks;
    :meth:`solve` is its batch of one.
    """

    def __init__(self, grid: Grid, params: ModelParams, cfg: SolverConfig):
        self.grid, self.params, self.cfg = grid, params, cfg
        self.delay_steps = lattice_steps(params.tau, cfg.dt, "tau (in steps of dt)", minimum=1)
        if cfg.mode == "picard":
            upper = contraction_interval(params)
            if upper is not None and cfg.dt >= upper:
                raise ParameterError(
                    f"picard mode needs dt < contraction horizon {upper:.6g}, got dt = {cfg.dt}"
                )
        self.semigroup = DirichletHeatSemigroup(grid, params.mu)
        self._step_full = self.semigroup.operator(cfg.dt, order="spline")
        self._step_half = self.semigroup.operator(cfg.dt / 2.0, order="spline")
        self.dispersal = DispersalKernel(params.alpha, grid)
        self._profile_rows = params.profiles.values(grid.nodes)
        self._laplacian_rows = params.profiles.second_derivatives(grid.nodes)
        self.ou_params = OUParams(params.mu, default_s_cut(params.mu, cfg.dt))

    # -- plumbing -----------------------------------------------------------

    def _frames(self, psis: Sequence[Segment], path: WienerPath, horizon: float) -> np.ndarray:
        """Check a batch against the solver and the path; return its
        (frames, B, nodes) stack with the histories on the first m + 1 frames."""
        m = self.delay_steps
        for psi in psis:
            if psi.grid != self.grid:
                raise ParameterError("initial segment grid does not match solver grid")
            # A Segment holds tau/dt + 1 frames by the lattice rule, so one
            # step of dt and m + 1 frames pin both dt and tau.
            if lattice_steps(psi.dt, self.cfg.dt, "initial segment dt") != 1:
                raise ParameterError(f"initial segment dt = {psi.dt} differs from solver dt")
            if psi.n_frames != m + 1:
                raise ParameterError(f"initial segment tau = {psi.tau} differs from model tau")
            psi.require_dirichlet("initial segment")
        lattice_steps(self.cfg.dt, path.dt_knot, "solver dt (in path steps)", minimum=1)
        n = lattice_steps(horizon, self.cfg.dt, "horizon", minimum=1)
        out = np.empty((m + n + 1, len(psis), self.grid.n_cells + 1))
        for b, psi in enumerate(psis):
            out[: m + 1, b] = psi.values
        return out

    def _trajectories(self, out: np.ndarray) -> list[Trajectory]:
        tau, dt = self.params.tau, self.cfg.dt
        return [Trajectory(self.grid, tau, dt, out[:, b]) for b in range(out.shape[1])]

    def noise_series(self, path: WienerPath, horizon: float) -> tuple[np.ndarray, np.ndarray]:
        """Noise field and Laplacian rows at all frame times -tau .. horizon.

        The package's one route from a path to noise rows: the step kernel
        reads them, and the u-runs of :mod:`rdslab.pullback` subtract and
        add back the field rows.  A row depends only on the base index of
        its time, so rows read on any shift of the path agree bit for bit.
        """
        m, n_steps = self.delay_steps, lattice_steps(horizon, self.cfg.dt, "horizon")
        times = self.cfg.dt * (np.arange(m + n_steps + 1) - m)
        z = ou_series(path, self.ou_params, times)
        return noise_rows(self._profile_rows, z), noise_rows(self._laplacian_rows, z)

    def _sweep(self, out: np.ndarray, delayed: np.ndarray, z_rows, q_rows) -> None:
        """The one step loop: fill out[m+1:] from out[:m+1], reading delayed
        states from ``delayed`` (``out`` itself, or the previous Picard sweep).

        Block k0 .. k1-1 (k1 <= k0 + m) starts with ``out`` complete through
        frame k0 + m, so delayed[k0:k1] is final in both modes: f, Disp and
        S(dt/2) run once on its stack, one BLAS call per frame and never one
        flattened GEMM (module docstring); only S(dt) runs frame by frame.
        """
        m, dt, n = self.delay_steps, self.cfg.dt, out.shape[0] - self.delay_steps - 1
        full, half, p = self._step_full.T, self._step_half.T, self.params
        feedback = p.epsilon != 0.0 and p.nonlinearity.kind != "zero"
        for k0 in range(0, n, m):
            k1 = min(k0 + m, n)
            force = q_rows[k0 + m : k1 + m, None]
            if feedback:
                force = _feedback(p, self.dispersal, delayed[k0:k1], z_rows[k0:k1, None]) + force
            g = dt * (force @ half)
            for k in range(k0, k1):
                np.matmul(out[k + m], full, out=out[k + m + 1])
                out[k + m + 1] += g[k - k0]

    # -- integration --------------------------------------------------------

    def solve(self, psi: Segment, path: WienerPath, horizon: float) -> Trajectory:
        """Integrate the configured mode from history psi over the horizon."""
        return self.solve_batch([psi], path, horizon)[0]

    def solve_batch(
        self, psis: Sequence[Segment], path: WienerPath, horizon: float
    ) -> list[Trajectory]:
        """Advance histories that share one path and horizon as one batch.

        Picard mode solves the members one at a time: each has its own sweeps.
        """
        if self.cfg.mode == "picard":
            return [self.picard_solve(psi, path, horizon)[0] for psi in psis]
        out = self._frames(psis, path, horizon)
        self._sweep(out, out, *self.noise_series(path, horizon))
        return self._trajectories(out)

    def picard_solve(
        self, psi: Segment, path: WienerPath, horizon: float
    ) -> tuple[Trajectory, PicardReport]:
        """Iterate the full-horizon solution sweep to its fixed point.

        Each sweep rebuilds the whole trajectory, reading delayed values
        from the previous sweep; the sup-norm change between sweeps is the
        contraction observable.  Delayed values become exact on a region
        growing by tau per sweep, so the iteration terminates with change
        exactly zero after ceil(horizon/tau) + 1 sweeps at the latest.
        """
        m = self.delay_steps
        cur = self._frames([psi], path, horizon)
        cur[m + 1 :] = psi.values[-1]
        rows = self.noise_series(path, horizon)
        changes: list[float] = []
        for _ in range(_PICARD_MAX_SWEEPS):
            new = cur.copy()
            self._sweep(new, cur, *rows)
            changes.append(float(np.max(np.abs(new[m + 1 :] - cur[m + 1 :]))))
            cur = new
            if changes[-1] <= self.cfg.picard_tol:
                break
        ratios = tuple(b / a for a, b in zip(changes, changes[1:]) if a > 0.0)
        report = PicardReport(len(changes), tuple(changes), ratios)
        return self._trajectories(cur)[0], report

