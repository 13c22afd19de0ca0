"""Experiment runners: seeded Monte Carlo checks with CSV reports.

Each experiment is a plan and a compute part.  The plan, arithmetic on an
ExperimentSpec that ``parse_config`` runs, checks the model conditions and
makes every lattice decision, path window and size cap of the run.  A rule
that the library applies again at run time is called, not restated: each
has one definition, in the module that applies it (``solver``,
``pullback``, ``semigroup``), so a plan and a run refuse a value in the
same words.  A stack's bytes are ``solver.stack_bytes``: a batch counts its
window, its frames' OU values, and the step kernel's two block buffers with
one delay block's noise rows.  The compute part reads the plan's
numbers and returns an ExperimentResult holding the CSV rows (fixed
order, 17-significant-digit rendering, so identical spec + seed gives
byte-identical output) and a list of named checks, one per asserted
invariant.  A check is a measured number and the closed interval it must
lie in; its verdict and its text are both derived from those numbers.

Monte Carlo samples carry their own derived seeds (base seed + sample
index), so each sample's output does not depend on the order in which
the samples are computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConditionViolatedError, ParameterError
from .grid import Field, Segment, lattice_steps, segment_co_norm, sup_norm
from .kernel import DispersalKernel, tail_mass
from .noise import (
    OUParams,
    default_s_cut,
    ou_series,
    sample_wiener,
    sde_residual,
    temperedness_diagnostic,
    window_steps,
    zero_wiener,
)
from .pullback import (
    absorbing_radius,
    cocycle_legs,
    cocycle_residual,
    derived_constants,
    fixed_point_estimate,
    fixed_point_times,
    pullback_bound,
    pullback_conjugated,
    pullback_steps,
    transient_envelope,
)
from .quadrature import erf
from .semigroup import DirichletHeatSemigroup, bounds_check_cells
from .solver import (PICARD_TOL, DelaySolver, SolverConfig, contraction_interval, delay_steps,
                     frame_times, horizon_steps, picard_gain, picard_sweeps, stack_bytes)

if TYPE_CHECKING:
    from .config import ExperimentSpec

__all__ = ["CheckResult", "ExperimentResult", "RunPlan", "plan_experiment", "run_experiment",
           "SEMIGROUP_TIMES", "SEMIGROUP_RATES"]

SEMIGROUP_TIMES = (1e-3, 0.1, 0.5, 1.0, 5.0)
SEMIGROUP_RATES = (0.5, 1.0, 2.0)


@dataclass(frozen=True)
class CheckResult:
    """One asserted invariant: ``lo <= measured <= hi``.

    A one-sided check sets the other end to -inf or +inf; an exact
    identity sets lo = hi.  NaN fails every check.  ``note`` says what
    was measured.
    """

    name: str
    measured: float
    lo: float
    hi: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.lo <= self.measured <= self.hi)

    @property
    def detail(self) -> str:
        # bounds get more digits, so an offset such as 1 + 1e-8 stays visible
        if self.lo == self.hi:
            relation = f"== {self.hi:.9g}"
        elif self.lo == -np.inf:
            relation = f"<= {self.hi:.9g}"
        elif self.hi == np.inf:
            relation = f">= {self.lo:.9g}"
        else:
            relation = f"in [{self.lo:.9g}, {self.hi:.9g}]"
        text = f"{self.measured:.6g} {relation}"
        return f"{text} ({self.note})" if self.note else text

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}"


@dataclass(frozen=True)
class ExperimentResult:
    experiment: str
    header: tuple
    rows: tuple
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def csv_text(self) -> str:
        lines = [",".join(self.header)]
        for row in self.rows:
            lines.append(",".join(_format_cell(cell) for cell in row))
        return "\n".join(lines) + "\n"

    def summary_lines(self) -> list[str]:
        return [c.line() for c in self.checks]


def _format_cell(cell) -> str:
    if isinstance(cell, str):
        return cell
    if isinstance(cell, (bool, np.bool_)):
        return "1" if cell else "0"
    if isinstance(cell, (int, np.integer)):
        return "%d" % cell
    return "%.17g" % cell


@dataclass(frozen=True)
class RunPlan:
    """A run's decisions, made from its spec by arithmetic alone: the windows,
    depths and steps its compute part reads, its work in trajectory-steps
    (a bound on picard-contraction's sweeps), random draws and matrix
    assemblies (of distinct matrices, as live holders share them; this
    assumes nothing outside the run holds one), and the bytes of the largest
    stack it holds: a whole trajectory, or a batch window with its blocks."""

    windows: dict = field(default_factory=dict)
    steps: int = 0
    samples: int = 0
    assemblies: int = 0
    stack: int = 0

    def __getitem__(self, key: str):
        return self.windows[key]


# A path record holds at most 10^6 samples, m rows of lattice steps (8 MB),
# over a hundred times the defaults' longest (cocycle, 8,620).  A run plans
# at most 10^9 trajectory-steps, random draws or matrix assemblies: fifty
# times the defaults' largest count, ou-stats' 2.0e7 draws (0.7 s on a 2-core Xeon).
_MAX_RECORD, _MAX_WORK = 10**6, 10**9
# A solve holds every frame of its run, (frames, 1, N + 1) doubles, a Picard
# solve two such stacks, and a batch of B a (frames, B, N + 1) window, each
# with what its step kernel holds (solver.stack_bytes).  A run
# holds at most 2^30 bytes (1 GiB) of them at once: eight operator matrices
# at the cell cap, and some 700 times the defaults' largest
# (convergence-study's reference solve, 1.5 MB).
_MAX_STACK = 2**30
_DRAWS, _STEPS = "make {} random draws", "make {} trajectory-steps"


def _capped(spec: ExperimentSpec, keys: tuple, count, what: str, cap: int = _MAX_WORK):
    """``count``, if at most ``cap``; else a ParameterError naming the keys that set it."""
    if count <= cap:
        return count
    *head, last = (f"{key} = {spec[key]}" for key in keys)
    named = f"{', '.join(head)} and {last}" if head else last
    raise ParameterError(f"{named} {what.format(count)}, more than {cap}")


def _s_cut(spec: ExperimentSpec, key: str, step: float) -> float:
    """default_s_cut(mu, step), once its OU window of 40 / (mu step) steps fits a record."""
    _capped(spec, ("mu", key), 40.0 / spec["mu"] / step, "need an OU window of {:.6g} steps",
            _MAX_RECORD)
    return default_s_cut(spec["mu"], step)


def _record(spec: ExperimentSpec, keys: tuple, m: int, window: tuple, step: float) -> int:
    """Draws of one m-row path on the window, by the sampler's window rule, within the cap."""
    draws = m * sum(window_steps(m, *window, step))
    return _capped(spec, keys, draws, "make a record of {} samples", _MAX_RECORD)


def _stack(spec: ExperimentSpec, keys: tuple, *calls: dict) -> int:
    """The largest ``stack_bytes(**call)`` of the run's stepping calls on the
    spec's grid and noise components, within the cap."""
    held = max((stack_bytes(nodes=spec["N"] + 1, modes=spec["m"], **c) for c in calls), default=0)
    return _capped(spec, ("N", *keys), held, "make a trajectory stack of {} bytes", _MAX_STACK)


# ----------------------------------------------------------------------
# individual experiments: each plan, then its compute part
# ----------------------------------------------------------------------

def _plan_kernel_bound(spec: ExperimentSpec) -> RunPlan:
    draws = _capped(spec, ("trials", "N"), spec["trials"] * (spec["N"] + 1), _DRAWS)
    return RunPlan(samples=draws, assemblies=1)


def _run_kernel_bound(spec: ExperimentSpec, plan: RunPlan) -> ExperimentResult:
    """Dispersal operator never amplifies the sup norm; unit input maps
    to the error-function profile away from the artificial right edge."""
    grid = spec.grid()
    alpha = spec["alpha"]
    op = DispersalKernel(alpha, grid)
    trials = spec["trials"]

    def one(i: int) -> tuple:
        rng = np.random.default_rng(spec["seed"] + i)
        values = rng.uniform(-1.0, 1.0, grid.nodes.size)
        out = op.apply_values(values)
        sup_in = float(np.max(np.abs(values)))
        sup_out = float(np.max(np.abs(out)))
        return (i, sup_in, sup_out, sup_out / sup_in)

    rows = [one(i) for i in range(trials)]
    max_ratio = max(row[3] for row in rows)

    # The truncation to [0, L] makes the outer half of the grid
    # artificial (mass leaks past L); compare against the closed form on
    # the trustworthy inner half and report the quantified leak.
    inner = grid.nodes <= grid.length / 2.0 + 1e-12
    unit = op.apply_values(np.ones(grid.nodes.size))
    exact = erf(grid.nodes / (2.0 * np.sqrt(alpha)))
    erf_err = float(np.max(np.abs(unit[inner] - exact[inner])))
    leak = tail_mass(alpha, grid)

    checks = (
        CheckResult("kernel-sup-ratio", max_ratio, -np.inf, 1.0 + 1e-8,
                    f"max sup ratio over {trials} fields"),
        CheckResult("kernel-unit-erf", erf_err, -np.inf, 1e-6,
                    f"sup error against erf on x <= L/2, edge leak {leak:.3e}"),
    )
    return ExperimentResult(
        spec.experiment,
        ("trial", "sup_in", "sup_out", "ratio"),
        tuple(rows),
        checks,
    )


def _smooth_random_field(grid, rng) -> Field:
    """Random smooth field vanishing at 0: a few decaying bump modes."""
    values = np.zeros(grid.nodes.size)
    x = grid.nodes
    for _ in range(4):
        a = rng.uniform(0.5, 4.0)
        amp = rng.uniform(-1.0, 1.0)
        shift = rng.uniform(0.0, grid.length / 2.0)
        values += amp * x * np.exp(-((x - shift) ** 2) / (2.0 * a))
    scale = np.max(np.abs(values))
    if scale > 0:
        values /= scale
    return Field(grid, values)


def _plan_semigroup_bounds(spec: ExperimentSpec) -> RunPlan:
    bounds_check_cells(spec["N"])
    # 12 uniform draws a field; three linear H a time, scaled for every rate
    draws = _capped(spec, ("fields",), 12 * spec["fields"], _DRAWS)
    return RunPlan(samples=draws, assemblies=3 * len(SEMIGROUP_TIMES))


def _run_semigroup_bounds(spec: ExperimentSpec, plan: RunPlan) -> ExperimentResult:
    """The four decay/smoothing inequalities of the killed heat flow."""
    grid = spec.grid()
    n_fields = spec["fields"]
    fields = [_smooth_random_field(grid, np.random.default_rng(spec["seed"] + i))
              for i in range(n_fields)]
    slack = max(1e-6, grid.dx ** 2)

    # one call per time: it holds that time's H while every rate scales it
    flow = DirichletHeatSemigroup(grid)
    by_time = [flow.check_bounds(fields, t, SEMIGROUP_RATES) for t in SEMIGROUP_TIMES]
    rows = []
    for i in range(n_fields):
        for r, mu in enumerate(SEMIGROUP_RATES):
            for t, measured in zip(SEMIGROUP_TIMES, by_time):
                pairs = measured[i][r].values()
                ok = all(value <= bound + slack for value, bound in pairs)
                rows.append((i, mu, t, *(x for pair in pairs for x in pair), ok))
    # measured / (bound + slack) <= 1 exactly when measured <= bound + slack
    table = np.array([row[3:11] for row in rows]).reshape(len(rows), 4, 2)
    worst = float(np.max(table[..., 0] / (table[..., 1] + slack)))
    checks = (
        CheckResult("semigroup-bounds", worst, -np.inf, 1.0,
                    f"worst measured / (bound + max(1e-6, dx^2)) over {len(rows)} "
                    f"(field, mu, t) cases and all four bounds"),
    )
    header = (
        "field", "mu", "t",
        "sup_measured", "sup_bound",
        "dx1_measured", "dx1_bound",
        "dx2_measured", "dx2_bound",
        "dt1_measured", "dt1_bound",
        "all_ok",
    )
    return ExperimentResult(spec.experiment, header, tuple(rows), checks)


def _plan_ou_stats(spec: ExperimentSpec) -> RunPlan:
    dt, keys = spec["dt_path"], ("mu", "dt_path")
    s_cut = _s_cut(spec, "dt_path", dt)
    window, probe = (-s_cut, 0.0), (-s_cut - 6.0, 6.0)
    draws = spec["paths"] * _record(spec, keys, 1, window, dt) + _record(spec, keys, 1, probe, dt)
    shifts, sde = np.arange(1, 7) * 1.0, (-5.0, 0.0)
    lattice_steps(shifts, dt, "time", minimum=None)  # the probe's shifts
    lattice_steps(sde[0], dt, "t0", minimum=None)  # sde_residual's interval
    return RunPlan(dict(s_cut=s_cut, window=window, probe=probe, shifts=shifts, sde=sde),
                   samples=_capped(spec, ("paths", *keys), draws, _DRAWS))


def _run_ou_stats(spec: ExperimentSpec, plan: RunPlan) -> ExperimentResult:
    """Stationary noise statistics: variance, mean, shift identity, and
    the integrated-equation residual."""
    mu = spec["mu"]
    dt_path = spec["dt_path"]
    n_paths = spec["paths"]
    p = OUParams(mu, plan["s_cut"])

    def z(path, t: float = 0.0) -> np.ndarray:
        # a one-element list, not a scalar: perfbench's trace hook takes len(times)
        return ou_series(path, p, [t])[:, 0]

    # stacks of 16 seeds; a row has the bits of its lone path whatever the stack size
    rows = []
    for lo in range(0, n_paths, 16):
        seeds = range(spec["seed"] + lo, spec["seed"] + min(lo + 16, n_paths))
        rows += enumerate(z(sample_wiener(1, *plan["window"], dt_path, seeds)).tolist(), lo)
    samples = np.array([row[1] for row in rows])
    var = float(np.var(samples))
    target = 1.0 / (2.0 * mu)
    mean = float(np.mean(samples))
    sem = float(np.std(samples) / np.sqrt(n_paths))

    probe = sample_wiener(1, *plan["probe"], dt_path, spec["seed"] + n_paths)
    shift_gap = max(
        abs(z(probe, t) - z(probe.shift(t))).item() for t in plan["shifts"]
    )
    residual = sde_residual(probe, p, *plan["sde"])

    checks = (
        CheckResult("ou-variance", abs(var - target), -np.inf, 0.05 * target,
                    f"|sample variance {var:.6g} - 1/(2 mu)|, bound 5% of 1/(2 mu)"),
        CheckResult("ou-mean", abs(mean), -np.inf, 4.0 * sem,
                    f"|sample mean {mean:.3e}|, bound 4 standard errors of {sem:.3e}"),
        CheckResult("ou-shift-identity", shift_gap, 0.0, 0.0,
                    "lattice shift identity gap, bit-exact"),
        CheckResult("ou-sde-residual", residual, -np.inf, dt_path,
                    "integrated-equation residual, bound dt_path"),
    )
    return ExperimentResult(spec.experiment, ("path", "z0"), tuple(rows), checks)


def _plan_temperedness(spec: ExperimentSpec) -> RunPlan:
    horizon, dt = spec["horizon"], spec["dt_path"]
    s_cut = _s_cut(spec, "dt_path", dt)
    window = (-horizon - s_cut, 0.0)
    draws = spec["paths"] * _record(spec, ("m", "horizon", "dt_path"), spec["m"], window, dt)
    lattice_steps(horizon, dt, "horizon")  # temperedness_diagnostic's series
    return RunPlan(dict(s_cut=s_cut, window=window),
                   samples=_capped(spec, ("paths", "m", "horizon", "dt_path"), draws, _DRAWS))


def _run_temperedness(spec: ExperimentSpec, plan: RunPlan) -> ExperimentResult:
    """Sub-exponential growth of the squared noise amplitude along the
    time shift, plus the per-path empirical decay constant."""
    mu = spec["mu"]
    beta = spec["beta"]
    horizon = spec["horizon"]
    dt_path = spec["dt_path"]
    n_paths = spec["paths"]
    m = spec["m"]
    p = OUParams(mu, plan["s_cut"])

    def one(i: int) -> tuple:
        path = sample_wiener(m, *plan["window"], dt_path, spec["seed"] + i)
        _, diag, r_hat = temperedness_diagnostic(path, p, beta, horizon)
        return (i, r_hat, float(diag[-1]))

    rows = [one(i) for i in range(n_paths)]
    finals = np.array([row[2] for row in rows])
    frac = float(np.mean(finals < 1e-3))
    r_hats = np.array([row[1] for row in rows])
    # positive means at least the smallest subnormal; a non-finite one fails as NaN
    smallest = float(np.min(r_hats)) if np.all(np.isfinite(r_hats)) else float("nan")
    checks = (
        CheckResult("temperedness-decay", frac, 0.95, np.inf,
                    f"share of {n_paths} paths with e^(-beta t)*sum z^2 < 1e-3 at t = {horizon:g}"),
        CheckResult("temperedness-envelope", smallest, np.nextafter(0.0, 1.0), np.inf,
                    "smallest empirical decay constant; every one finite and positive"),
    )
    return ExperimentResult(
        spec.experiment, ("path", "r_hat", "final_diagnostic"), tuple(rows), checks
    )


def _initial_segment(grid, tau: float, dt: float, which: int = 0) -> Segment:
    """Deterministic smooth Dirichlet history segments for experiments."""
    shapes = (
        lambda xi, x: x * np.exp(-x) * (1.0 + 0.5 * xi),
        lambda xi, x: np.sin(x) * np.exp(-x / 2.0) * (2.0 + xi),
        lambda xi, x: x * np.exp(-((x - 3.0) ** 2) / 4.0) * np.cos(xi),
        lambda xi, x: np.tanh(x) * np.exp(-x / 4.0),
        lambda xi, x: x * x * np.exp(-x) * (1.0 - xi),
    )
    return Segment.from_function(grid, tau, dt, shapes[which % len(shapes)])


def _plan_picard_contraction(spec: ExperimentSpec) -> RunPlan:
    params, dt = spec.model_params(), spec["dt"]
    t_star = contraction_interval(params)
    if t_star is None:
        raise ConditionViolatedError(
            "picard-contraction needs eps*lipschitz > mu so the contraction "
            f"horizon is finite; got eps*lipschitz = {params.feedback_lipschitz} "
            f"<= mu = {params.mu}"
        )
    if dt >= spec["horizon_fraction"] * t_star:
        raise ParameterError(f"dt = {dt} must be below the tested horizon "
                             f"{spec['horizon_fraction'] * t_star:.6g}")
    m = delay_steps(params.tau, dt)
    span = spec["horizon_fraction"] * t_star / dt  # inf or NaN where eps * lipschitz overflows
    steps = int(np.floor(_capped(spec, ("mu", "epsilon", "lipschitz", "dt"), span,
                                 "make a contraction horizon of {:.6g} steps", _MAX_RECORD)))
    horizon = steps * dt
    window = (-_s_cut(spec, "dt", dt) - params.tau, horizon)
    draws = _record(spec, ("mu", "dt"), params.m, window, dt)
    stack = _stack(spec, ("mu", "epsilon", "lipschitz", "dt"), dict(m=m, n=steps, stacks=2))
    # the Picard sweeps, then the method-of-steps run; the two solvers are
    # alive together, so they share their three matrices
    return RunPlan(dict(horizon=horizon, window=window), samples=draws, assemblies=3, stack=stack,
                   steps=(picard_sweeps(steps, m) + 1) * steps)


def _run_picard_contraction(spec: ExperimentSpec, plan: RunPlan) -> ExperimentResult:
    """Per-sweep contraction of the mild-solution fixed-point map on a
    horizon inside the contraction window."""
    grid = spec.grid()
    params = spec.model_params()
    dt = spec["dt"]
    horizon = plan["horizon"]
    solver = DelaySolver(grid, params, SolverConfig(dt, mode="picard"))
    path = sample_wiener(params.m, *plan["window"], dt, spec["seed"])
    psi = _initial_segment(grid, params.tau, dt, 0)
    traj, report = solver.picard_solve(psi, path, horizon)

    steps_solver = DelaySolver(grid, params, SolverConfig(dt))
    ref = steps_solver.solve(psi, path, horizon)
    agreement = float(np.max(np.abs(traj.values - ref.values)))

    bound = picard_gain(params, horizon) + 1e-6
    rows = list(zip(range(report.iterations), report.changes, (0.0,) + report.ratios))
    checks = (
        CheckResult("picard-ratio", report.max_ratio, -np.inf, bound,
                    f"max per-sweep ratio, bound gain + 1e-6 on horizon {horizon:g}"),
        # converged exactly when the last sweep's change is within the tolerance
        CheckResult("picard-converged", report.changes[-1], -np.inf, PICARD_TOL,
                    f"last sweep change after {report.iterations} sweeps"),
        CheckResult("picard-vs-steps", agreement, -np.inf, 1e-8 + dt,
                    "sup difference of picard and method-of-steps trajectories"),
    )
    return ExperimentResult(
        spec.experiment, ("iteration", "change", "ratio"), tuple(rows), checks
    )


def _plan_cocycle(spec: ExperimentSpec) -> RunPlan:
    params, t, s = spec.model_params(), spec["t"], spec["s"]
    dts = (spec["dt"], spec["dt"] / 2.0)
    ms = [delay_steps(params.tau, dt) for dt in dts]
    window = (-(_s_cut(spec, "dt", dts[1]) + params.tau + 1.0), t + s)
    draws = _record(spec, ("t", "s", "dt"), params.m, window, dts[1])
    steps = 0
    for dt, m in zip(dts, ms):
        n = cocycle_legs(t, s, dt)
        steps += sum(n) * (2 if all(n) else 1)
    # at dt/2: the direct run's window, and the legs' whole stacks if both run
    calls = [dict(m=m, n=sum(n), batch=1)] * any(n) + [dict(m=m, n=max(n))] * all(n)
    stack = _stack(spec, ("t", "s", "dt"), *calls)
    # the dt/2 solver is built while the dt one is alive: they share S(dt/2) and Disp
    return RunPlan(dict(dts=dts, window=window), steps=steps, samples=draws, assemblies=4,
                   stack=stack)


def _run_cocycle(spec: ExperimentSpec, plan: RunPlan) -> ExperimentResult:
    """Two-leg vs one-leg propagation residual, at dt and dt/2, beside the
    sup norm of the one-leg run's terminal frame."""
    grid = spec.grid()
    params = spec.model_params()
    t, s = spec["t"], spec["s"]
    dts = plan["dts"]
    path = sample_wiener(params.m, *plan["window"], dts[1], spec["seed"])
    rows = []
    for dt in dts:
        solver = DelaySolver(grid, params, SolverConfig(dt))
        psi = _initial_segment(grid, params.tau, dt, 1)
        rows.append((dt, *cocycle_residual(solver, psi, path, t, s)))
    residuals = [row[1] for row in rows]
    checks = (
        CheckResult("cocycle-residual", residuals[0], 0.0, 0.0,
                    f"residual at dt, (t, s) = ({t:g}, {s:g}), restart is exact"),
        CheckResult("cocycle-halving", residuals[1], 0.0, 0.0,
                    "residual at dt/2, restart is exact"),
    )
    return ExperimentResult(spec.experiment, ("dt", "residual", "direct_sup"), tuple(rows), checks)


def _plan_absorbing(spec: ExperimentSpec) -> RunPlan:
    params, dt, t_max = spec.model_params(), spec["dt"], spec["t_max"]
    if not params.absorbing_condition:
        raise ConditionViolatedError("absorbing-ball condition failed: "
                                     + params.describe_conditions())
    m = delay_steps(params.tau, dt)
    n_times = 5
    times = [t_max * (k + 1) / n_times for k in range(n_times)]
    window = (-(t_max + params.tau + _s_cut(spec, "dt", dt) + 1.0), 0.0)
    draws = spec["paths"] * _record(spec, ("t_max", "dt"), params.m, window, dt)
    decay_lo = -(t_max + params.tau)
    lattice_steps(decay_lo, dt, "t_lo", minimum=None)  # derived_constants' window
    depths = pullback_steps(times, dt, m)
    runs = spec["paths"] * spec["segments"] * int(depths.sum())
    # each depth's segments are one batch; the deepest holds the largest window
    stack = _stack(spec, ("segments", "t_max", "dt"),
                   dict(m=m, n=int(depths.max()), batch=spec["segments"]))
    return RunPlan(dict(times=times, window=window, decay_lo=decay_lo),
                   steps=_capped(spec, ("paths", "segments", "t_max", "dt"), runs, _STEPS),
                   samples=_capped(spec, ("paths", "t_max", "dt"), draws, _DRAWS), assemblies=3,
                   stack=stack)


def _run_absorbing(spec: ExperimentSpec, plan: RunPlan) -> ExperimentResult:
    """Pullback runs enter the computed absorbing ball and stay inside.

    The slack constant is measured honestly: only pre-entry (transient)
    excess over the decay envelope may feed it, and the post-entry
    assertion then uses that measured value.  With the tested parameters
    the transient never exceeds the envelope, so the measured slack is 0
    and the post-entry check has full force.
    """
    grid = spec.grid()
    params = spec.model_params()
    dt = spec["dt"]
    solver = DelaySolver(grid, params, SolverConfig(dt))
    times = plan["times"]
    n_paths = spec["paths"]
    n_segments = spec["segments"]
    co_targets = [spec["co_max"] * (j + 1) / n_segments for j in range(n_segments)]

    segments = []
    for j, target in enumerate(co_targets):
        base = _initial_segment(grid, params.tau, dt, j)
        scale = target / segment_co_norm(base)
        segments.append(Segment(grid, params.tau, dt, base.values * scale))

    def one_path(i: int) -> tuple:
        path = sample_wiener(params.m, *plan["window"], dt, spec["seed"] + i)
        # The decay constant is measured over exactly the span of noise
        # the pullback runs consume.
        consts = derived_constants(params, grid, path, plan["decay_lo"])
        radius = absorbing_radius(params, consts)
        path_rows = []
        worst_post = transient_excess = 0.0
        bound_excess = -float("inf")
        # One batch per depth: the segments share the path and the horizon.
        by_depth = [pullback_conjugated(solver, segments, path, t) for t in times]
        for j, (segment, runs) in enumerate(zip(segments, zip(*by_depth))):
            sup_limit = pullback_bound(params, consts, segment)
            bound_excess = max(bound_excess, max(sup_norm(seg.frame(-1)) for seg in runs) - sup_limit)
            norms = [segment_co_norm(seg) for seg in runs]
            entry = next((k for k, v in enumerate(norms) if v <= radius), None)
            if entry is None:
                entry_time = float("nan")
            else:
                entry_time = times[entry]
                for k in range(entry):
                    envelope = transient_envelope(params, co_targets[j], times[k])
                    transient_excess = max(transient_excess, norms[k] - radius - envelope)
                worst_post = max(worst_post, max(norms[entry:]))
            path_rows += [(i, j, t, norms[k], radius, entry_time) for k, t in enumerate(times)]
        return path_rows, radius, worst_post, transient_excess, bound_excess

    results = [one_path(i) for i in range(n_paths)]
    rows = [row for path_rows, *_ in results for row in path_rows]
    # NaN, and so a failure, when some (path, segment) run never entered
    last_entry = float(np.max([row[5] for row in rows]))
    c1_measured = max(0.0, max(r[3] for r in results))
    min_radius = min(r[1] for r in results)
    # the sign of a difference is exact: remain <= 0 when worst <= radius + slack
    remain = float(np.max([r[2] - (r[1] + c1_measured) for r in results]))
    worst_bound_excess = max(r[4] for r in results)
    checks = (
        CheckResult("absorbing-entry", last_entry, -np.inf, times[-1],
                    f"latest entry time into the ball over every (path, segment) run, "
                    f"min radius {min_radius:.4g}"),
        CheckResult("absorbing-remain", remain, -np.inf, 0.0,
                    f"worst post-entry co-norm minus (radius + measured slack {c1_measured:.4g})"),
        CheckResult("pullback-sup-bound", worst_bound_excess, -np.inf, 1e-4,
                    "worst excess of a pullback run's sup over the a-priori bound"),
    )
    header = ("path", "segment", "t", "co_norm", "radius", "entry_time")
    return ExperimentResult(spec.experiment, header, tuple(rows), checks)


def _plan_fixed_point(spec: ExperimentSpec) -> RunPlan:
    params, dt, horizon = spec.model_params(), spec["dt"], spec["horizon"]
    if not params.contraction_condition:  # it asks for tau < 1 and names tau
        raise ConditionViolatedError("fixed-point contraction gate failed: "
                                     + params.describe_conditions())
    m = delay_steps(params.tau, dt)
    window = (-(horizon + params.tau + _s_cut(spec, "dt", dt) + 2.0), 1.0)
    draws = _record(spec, ("horizon", "dt"), params.m, window, dt)
    # a pair at each depth, then one run to depth horizon - 1 and one unit advance
    runs = pullback_steps(fixed_point_times(horizon, dt, m), dt, m)
    steps = _capped(spec, ("horizon", "dt"), 2 * int(runs.sum()) + int(runs[-2] + runs[0]), _STEPS)
    # the lone run is whole; the deepest pair, a batch of two
    stack = _stack(spec, ("horizon", "dt"), dict(m=m, n=int(runs[-2])),
                   dict(m=m, n=int(runs[-1]), batch=2))
    return RunPlan(dict(window=window), steps=steps, samples=draws, assemblies=3, stack=stack)


def _run_fixed_point(spec: ExperimentSpec, plan: RunPlan) -> ExperimentResult:
    """Exponentially attracting random fixed point under the strong
    damping condition: contraction rate, limit, and stationarity."""
    grid = spec.grid()
    params = spec.model_params()
    dt = spec["dt"]
    solver = DelaySolver(grid, params, SolverConfig(dt))
    path = sample_wiener(params.m, *plan["window"], dt, spec["seed"])
    phi1 = _initial_segment(grid, params.tau, dt, 0)
    phi2 = _initial_segment(grid, params.tau, dt, 1)
    report = fixed_point_estimate(solver, phi1, phi2, path, spec["horizon"])

    bound = params.unit_contraction_factor
    succ = (0.0,) + report.successive_distances
    rows = list(zip(report.times, report.pair_distances, succ))
    pair = report.pair_distances
    tail = pair[len(pair) // 2:]
    monotone = all(tail[k + 1] <= tail[k] + 1e-15 for k in range(len(tail) - 1))
    checks = (
        CheckResult("fixed-point-rate", report.unit_factor, -np.inf, min(bound + 0.05, 1.0),
                    f"fitted per-unit contraction, bound min(theoretical {bound:.4g} + 0.05, 1)"),
        CheckResult("fixed-point-stationarity", report.stationarity_gap, -np.inf, 10.0 * dt,
                    "one-step stationarity gap, bound 10 dt"),
        CheckResult("fixed-point-attraction", pair[-1] if monotone else np.inf, -np.inf, 1e-4,
                    "final pullback distance; inf if the final half rises by more than 1e-15"),
    )
    return ExperimentResult(
        spec.experiment,
        ("pullback_time", "pair_distance", "successive_distance"),
        tuple(rows),
        checks,
    )


def _plan_convergence_study(spec: ExperimentSpec) -> RunPlan:
    params, horizon, dt_ref = spec.model_params(), spec["horizon"], spec["dt_ref"]
    dts = (spec["dt"], spec["dt"] / 2.0, dt_ref)
    ms = [delay_steps(params.tau, dt) for dt in dts]
    for label, dt in zip(("dt", "dt/2"), dts):
        lattice_steps(dt, dt_ref, f"{label} (in steps of dt_ref)", minimum=2)
    # the widest OU window of the three solvers: the reference's wherever the others fit in it
    window = (-(max(_s_cut(spec, "dt_ref", dt) for dt in dts[::-1]) + params.tau), horizon)
    _record(spec, ("horizon", "dt_ref"), params.m, window, dt_ref)
    steps = 0
    for dt, m in zip(dts, ms):  # a solver reads the path at its frame times -tau .. horizon
        n = horizon_steps(horizon, dt)
        lattice_steps(frame_times(dt, m, n), dt_ref, "time", minimum=None)
        steps += n
    # every solve holds all its frames; the reference's, at dt_ref <= dt / 4, are the most
    stack = _stack(spec, ("horizon", "dt_ref"), dict(m=m, n=n))
    # a solver's S(dt/2) that is the next solver's S(dt) is carried to it:
    # three matrices a solver, less the carried ones
    carries = tuple(b == a / 2.0 for a, b in zip(dts, dts[1:])) + (False,)
    return RunPlan(dict(dts=dts, carries=carries, window=window), steps=steps,
                   assemblies=9 - sum(carries), stack=stack)


def _run_convergence_study(spec: ExperimentSpec, plan: RunPlan) -> ExperimentResult:
    """First-order accuracy in dt of the time stepping, against a fine
    reference run with the noise switched off (deterministic dynamics,
    nonzero feedback)."""
    grid = spec.grid()
    params = spec.model_params()
    horizon = spec["horizon"]
    dts = plan["dts"]
    path = zero_wiener(params.m, *plan["window"], dts[-1])
    psi_fn = lambda xi, x: x * np.exp(-x) * (1.0 + 0.5 * np.sin(3.0 * xi))
    terminals = []
    for dt, carry in zip(dts, plan["carries"]):
        solver = DelaySolver(grid, params, SolverConfig(dt))
        carried = None  # the solver now holds it
        psi = Segment.from_function(grid, params.tau, dt, psi_fn)
        terminals.append(solver.solve(psi, path, horizon).values[-1].copy())
        if carry:  # this S(dt/2) is the next solver's S(dt): keep it alone
            carried = solver.semigroup.operator(dt / 2.0, params.mu)
        del solver  # free this solver's other N = 800 matrices before the next is built
    errors = [float(np.max(np.abs(term - terminals[-1]))) for term in terminals[:2]]
    ratio = errors[0] / errors[1] if errors[1] > 0 else float("inf")
    rows = [(dts[0], errors[0]), (dts[1], errors[1])]
    checks = (
        CheckResult("convergence-order", ratio, 1.5, 3.0,
                    f"error ratio when dt halves, errors {errors[0]:.3e} -> {errors[1]:.3e}"),
    )
    return ExperimentResult(spec.experiment, ("dt", "sup_error"), tuple(rows), checks)


# Experiment name -> (plan, compute part).
_RUNNERS = {
    "kernel-bound": (_plan_kernel_bound, _run_kernel_bound),
    "semigroup-bounds": (_plan_semigroup_bounds, _run_semigroup_bounds),
    "ou-stats": (_plan_ou_stats, _run_ou_stats),
    "temperedness": (_plan_temperedness, _run_temperedness),
    "picard-contraction": (_plan_picard_contraction, _run_picard_contraction),
    "cocycle": (_plan_cocycle, _run_cocycle),
    "absorbing": (_plan_absorbing, _run_absorbing),
    "fixed-point": (_plan_fixed_point, _run_fixed_point),
    "convergence-study": (_plan_convergence_study, _run_convergence_study),
}


def plan_experiment(spec: ExperimentSpec) -> RunPlan:
    """The named experiment's run plan: ConditionViolatedError for a failed
    parameter condition; ParameterError for a window, depth or step off its
    lattice, a record or a work count over its cap, or an unknown name."""
    if spec.experiment not in _RUNNERS:
        raise ParameterError(f"unknown experiment {spec.experiment!r}")
    return _RUNNERS[spec.experiment][0](spec)


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run the named experiment by its plan."""
    plan = plan_experiment(spec)
    return _RUNNERS[spec.experiment][1](spec, plan)
