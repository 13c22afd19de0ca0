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

where Z_k and Q_k are the noise field and its Laplacian on the lattice.
:meth:`DelaySolver.noise_series` gives the OU values z_k at the frame
times, and :meth:`DelaySolver.field_rows` turns a run of them into rows,
each row from its own z_k alone; the step kernel forms the Z and Q rows
of one delay block at a time, and the pullback module moves u to v and
back with the Z rows of the history windows.  The S(dt/2) factor is the
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

The recursion runs on a (frames, B, nodes) stack in delay blocks of m
steps (the method of steps), by two routes: :meth:`DelaySolver.solve`
keeps every frame of one history, and :meth:`DelaySolver.terminal_segments`
advances B histories sharing one path and horizon together and keeps
only their terminal segments.  Blocks sit on absolute multiples of m
steps; a run's phase is the absolute index of its first step (the path
origin in steps of dt) mod m.  A block's steps read only frames that are
final when it starts, so its forcing is formed at once: step k takes row
(phase + k) mod m of an (m, B, nodes) stack, zero where a run's end cuts
the block, and f, Disp and S(dt/2) run on the stack as one product of
exactly m B rows.  BLAS may round a row of a product differently with the
row count and the row's place in it, but not with the other rows' values
(a test guards this), so a frame gets the same bits wherever its run
started.  Only S(dt) runs frame by frame, as each step needs the last
frame.  B sets the row count and so may move a member's last bits: batch
composition must follow from the config alone, never scheduling.
A solve holds that stack and nothing else of its horizon's size: the OU
values are a few numbers per frame, a block's rows live for the block,
and the kernel fills two (m, B, nodes) block buffers in place, allocated
once a call; :func:`stack_bytes` counts all of it.  A
:class:`Trajectory`'s terminal segment is a copy, so a caller that keeps
only it frees the stack with the trajectory, and
:meth:`DelaySolver.terminal_segments` never builds the stack: it steps
the same blocks, with the same bits, in a window of a few delay blocks.

Everything downstream leans on two exactness properties of this module:
restarting from a stored segment reproduces the continued run bit for
bit (the flow property), and Picard iteration of the same recursion
(:meth:`DelaySolver.picard_solve`) reaches the method-of-steps trajectory
exactly after ceil(T/tau) sweeps because each sweep extends the region of
correct delayed values by tau.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, float_array, positive
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
# picard_solve stops at a sweep change <= PICARD_TOL, or after the sweep cap.
PICARD_TOL = 1e-10
_PICARD_MAX_SWEEPS = 50
# terminal_segments steps this many frames per window at least, in whole
# delay blocks: one block per window at m = 1 paid a _sweep call per step.
_WINDOW_STEPS = 64


@dataclass(frozen=True)
class SolverConfig:
    """Time stepping configuration.

    dt must divide tau exactly and be an integer multiple of the driving
    path's knot spacing.  Every solve steps by the method of steps;
    ``mode = "picard"`` only makes the build check dt against the
    contraction horizon that :meth:`DelaySolver.picard_solve` relies on.
    """

    dt: float
    mode: str = "method-of-steps"

    def __post_init__(self) -> None:
        positive("dt", self.dt)
        if self.mode not in _MODES:
            raise ParameterError(f"mode must be one of {_MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class Trajectory:
    """Lattice of solution fields from -tau through the horizon."""

    grid: Grid
    tau: float
    dt: float
    values: np.ndarray
    history_frames: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        v = float_array("trajectory values", self.values)
        m = lattice_steps(self.tau, self.dt, "trajectory tau")
        if v.ndim != 2 or v.shape[0] < m + 1 or v.shape[1] != self.grid.n_cells + 1:
            raise ParameterError(f"trajectory values have invalid shape {v.shape}")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "history_frames", m)
        v.setflags(write=False)

    @property
    def terminal_segment(self) -> Segment:
        """The last tau/dt + 1 frames, as a copy, so a kept segment does not
        keep the trajectory's stack alive."""
        frames = self.values[-self.history_frames - 1 :].copy()
        return Segment(self.grid, self.tau, self.dt, frames)


@dataclass(frozen=True)
class PicardReport:
    """Per-sweep convergence record of :meth:`DelaySolver.picard_solve`."""

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


def delay_steps(tau: float, dt: float) -> int:
    """Solver steps per delay, tau / dt: a whole number, at least one."""
    return lattice_steps(tau, dt, "tau (in steps of dt)", minimum=1)


def horizon_steps(horizon: float, dt: float) -> int:
    """Solver steps of a run's horizon: a whole number, at least one."""
    return lattice_steps(horizon, dt, "horizon", minimum=1)


def frame_times(dt: float, m: int, n: int) -> np.ndarray:
    """The frame times dt (k - m), k = 0 .. m + n, of a run of n steps at m per delay."""
    return dt * (np.arange(m + n + 1) - m)


def picard_sweeps(n: int, m: int) -> int:
    """picard_solve's sweeps at most for n steps at m per delay: the change is
    exactly 0 by ceil(n / m) + 1 sweeps, and the cap is 50 sweeps."""
    return min(-(-n // m) + 1, _PICARD_MAX_SWEEPS)


def batch_window(m: int) -> int:
    """Steps per window of terminal_segments at m steps per delay: k m, k = ceil(64 / m)."""
    return m * -(-_WINDOW_STEPS // m)


def stack_bytes(m: int, n: int, nodes: int, modes: int, batch: int = 0, stacks: int = 1) -> int:
    """Bytes of the arrays a stepping call holds while its kernel runs, for n
    steps at m steps per delay, on ``nodes`` nodes and ``modes`` noise
    components: ``stacks`` whole stacks of m + n + 1 frames of one history
    (solve 1, picard_solve 2) or, for a batch of ``batch`` histories,
    terminal_segments' window of m + 1 + min(n, batch_window(m)) frames; the
    OU values of the m + n + 1 frame times; and _sweep's two (m, batch,
    nodes) block buffers, with a block's (m, nodes) noise rows and the term
    being added to them.  The buffers are counted batch wide even without
    feedback, where they are one history wide."""
    frames = batch * (m + 1 + min(n, batch_window(m))) if batch else stacks * (m + n + 1)
    return 8 * ((frames + 2 * m * (max(batch, 1) + 1)) * nodes + modes * (m + n + 1))


def _feedback(params: ModelParams, kernel: DispersalKernel, arg, out=None) -> np.ndarray:
    """eps * Disp[f(arg)] along the last axis, for any batch shape, written to
    ``out`` if given; f runs in place on arg."""
    f = params.nonlinearity.value(arg, out=arg)
    return np.multiply(params.epsilon, kernel.apply_values(f, out=out), out=out)


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
    arg = delayed_field.values + delayed_noise.values
    return Field(delayed_field.grid, _feedback(params, kernel, arg))


class DelaySolver:
    """Precomputed-matrix integrator for one (grid, params, config) triple.

    Its matrices come read-only from ``quadrature.shared_matrix``, shared
    by every solve and by any solver alive at the same time that needs them.
    :meth:`_sweep` is the one step kernel: :meth:`solve` runs it once on a
    batch of one, :meth:`terminal_segments` once per window of a batch,
    and :meth:`picard_solve` once per sweep.
    """

    def __init__(self, grid: Grid, params: ModelParams, cfg: SolverConfig):
        self.grid, self.params, self.cfg = grid, params, cfg
        self.delay_steps = delay_steps(params.tau, cfg.dt)
        if cfg.mode == "picard":
            upper = contraction_interval(params)
            if upper is not None and cfg.dt >= upper:
                raise ParameterError(
                    f"picard mode needs dt < contraction horizon {upper:.6g}, got dt = {cfg.dt}"
                )
        self.semigroup = DirichletHeatSemigroup(grid)
        self._step_full = self.semigroup.operator(cfg.dt, params.mu, "spline")
        self._step_half = self.semigroup.operator(cfg.dt / 2.0, params.mu, "spline")
        self.dispersal = DispersalKernel(params.alpha, grid)
        self._profile_rows = params.profiles.values(grid.nodes)
        self._laplacian_rows = params.profiles.second_derivatives(grid.nodes)
        self.ou_params = OUParams(params.mu, default_s_cut(params.mu, cfg.dt))

    # -- plumbing -----------------------------------------------------------

    def _frames(
        self, psis: Sequence[Segment], path: WienerPath, horizon: float, steps: int | None = None
    ) -> tuple[np.ndarray, int]:
        """Check a batch against the solver and the path; return its
        (frames, B, nodes) stack with the histories on the first m + 1 frames,
        for the horizon or for at most ``steps`` steps of it, and the run's
        phase: its absolute step index (the path origin in steps of dt) mod m."""
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
        knots = lattice_steps(self.cfg.dt, path.dt_knot, "solver dt (in path steps)", minimum=1)
        n = horizon_steps(horizon, self.cfg.dt)
        out = np.empty((m + min(n, steps or n) + 1, len(psis), self.grid.n_cells + 1))
        for b, psi in enumerate(psis):
            out[: m + 1, b] = psi.values
        return out, path.origin // knots % m

    def noise_series(self, path: WienerPath, horizon: float) -> np.ndarray:
        """OU values z at all frame times -tau .. horizon, shape (m, frames).

        A value depends only on the base index of its time, so values read
        on any shift of the path agree bit for bit.
        """
        n = lattice_steps(horizon, self.cfg.dt, "horizon")
        return ou_series(path, self.ou_params, frame_times(self.cfg.dt, self.delay_steps, n))

    def field_rows(self, z: np.ndarray, laplacian: bool = False) -> np.ndarray:
        """Noise field rows sum_j z_j g_j, or the Laplacian rows with g_j'',
        one per column of the OU values z.

        The package's one route from OU values to noise rows: the step
        kernel forms each delay block's rows here, and the u-runs of
        :mod:`rdslab.pullback` subtract and add back the field rows of the
        history windows.  A row depends only on its own column of z.
        """
        return noise_rows(self._laplacian_rows if laplacian else self._profile_rows, z)

    def _sweep(self, out: np.ndarray, delayed: np.ndarray, z: np.ndarray, phase: int) -> None:
        """The one step loop: fill out[m+1:] from out[:m+1], reading delayed
        states from ``delayed`` (``out`` itself, or the previous Picard sweep)
        and the OU values z of every frame; step 0 has absolute index
        ``phase`` mod m.

        Blocks sit on absolute multiples of m.  The block of steps a .. k1-1
        starts with ``out`` complete through frame a + m, so delayed[a:k1] is
        final for either ``delayed``: step k takes row (phase + k) mod m of an
        (m, B, nodes) stack, zero where the block is cut, and f, Disp and
        S(dt/2) run once on it as one (m B)-row product; only S(dt) runs
        frame by frame.  Without feedback the members share the rows: B is 1.
        Two such stacks, allocated once a call, serve every block: the
        forcing, and g, which holds the feedback argument (f runs on it in
        place), then the Laplacian rows, then the S(dt/2) product.
        """
        m, dt, n = self.delay_steps, self.cfg.dt, out.shape[0] - self.delay_steps - 1
        full, half, p = self._step_full.T, self._step_half.T, self.params
        feedback = p.epsilon != 0.0
        shape = (m, out.shape[1] if feedback else 1, out.shape[2])
        force, g = np.empty(shape), np.empty(shape)
        flat_force, flat_g = force.reshape(-1, shape[2]), g.reshape(-1, shape[2])
        for k0 in range(-phase, n, m):
            a, k1 = max(k0, 0), min(k0 + m, n)
            lo, hi = a - k0, k1 - k0
            # rows reach the members by assignment, not by a broadcast sum,
            # for which numpy would hold iterator buffers
            if feedback:
                g[:lo] = g[hi:] = 0.0
                g[lo:hi] = self.field_rows(z[:, a:k1])[:, None]
                g[lo:hi] += delayed[a:k1]
                _feedback(p, self.dispersal, flat_g, flat_force)
            else:  # 0 + x is x: the rows hold no -0.0
                force.fill(0.0)
            g[lo:hi] = self.field_rows(z[:, a + m : k1 + m], laplacian=True)[:, None]
            force[lo:hi] += g[lo:hi]
            np.matmul(flat_force, half, out=flat_g)
            g *= dt
            for k in range(a, k1):
                row = out[k + m + 1]
                np.dot(out[k + m], full, out=row)
                row += g[k - k0]

    # -- integration --------------------------------------------------------

    def solve(self, psi: Segment, path: WienerPath, horizon: float) -> Trajectory:
        """Step history psi over the horizon by the method of steps, as a
        (frames, 1, nodes) stack; keep every frame."""
        out, phase = self._frames([psi], path, horizon)
        self._sweep(out, out, self.noise_series(path, horizon), phase)
        return Trajectory(self.grid, self.params.tau, self.cfg.dt, out[:, 0])

    def terminal_segments(
        self, psis: Sequence[Segment], path: WienerPath, horizon: float
    ) -> list[Segment]:
        """Terminal segments of histories that share one path and horizon,
        stepped as one batch in a window of m + 1 + k m frames, k =
        ceil(64 / m), whose last m + 1 frames move to the front after each
        pass.  Window edges sit on absolute block boundaries (the first
        window is short by the phase), so no edge adds a padded product."""
        m = self.delay_steps
        w = batch_window(m)
        out, phase = self._frames(psis, path, horizon, w)
        z = self.noise_series(path, horizon)
        n = z.shape[1] - m - 1
        win = out[: m + 1]
        for s in range(-phase, n, w):
            a = max(s, 0)
            out[: m + 1] = win[-m - 1 :]  # on the first pass, the histories
            win = out[: m + 1 + min(s + w, n) - a]
            self._sweep(win, win, z[:, a : a + win.shape[0]], (phase + a) % m)
        grid, tau, dt = self.grid, self.params.tau, self.cfg.dt
        return [Segment(grid, tau, dt, win[-m - 1 :, b].copy()) for b in range(len(psis))]

    def picard_solve(
        self, psi: Segment, path: WienerPath, horizon: float
    ) -> tuple[Trajectory, PicardReport]:
        """Iterate the full-horizon solution sweep to its fixed point.

        Each sweep rebuilds the whole trajectory, reading delayed values
        from the previous sweep; the sup-norm change between sweeps is the
        contraction observable.  Delayed values become exact on a region
        growing by tau per sweep, so the change is exactly zero by sweep
        ceil(horizon/tau) + 1.  The iteration stops at the first change of
        at most PICARD_TOL, or after :func:`picard_sweeps` sweeps: sweep
        ceil(horizon/tau) + 1 or sweep 50, whichever comes first.
        """
        m = self.delay_steps
        cur, phase = self._frames([psi], path, horizon)
        cur[m + 1 :] = psi.values[-1]
        z = self.noise_series(path, horizon)
        changes: list[float] = []
        for _ in range(picard_sweeps(cur.shape[0] - m - 1, m)):
            new = cur.copy()
            self._sweep(new, cur, z, phase)
            # the previous sweep is spent: its frames take the change in place,
            # and no name keeps a view of them into the next sweep
            np.subtract(new[m + 1 :], cur[m + 1 :], out=cur[m + 1 :])
            changes.append(float(np.max(np.abs(cur[m + 1 :], out=cur[m + 1 :]))))
            cur = new
            if changes[-1] <= PICARD_TOL:
                break
        ratios = tuple(b / a for a, b in zip(changes, changes[1:]))
        report = PicardReport(len(changes), tuple(changes), ratios)
        return Trajectory(self.grid, self.params.tau, self.cfg.dt, cur[:, 0]), report

