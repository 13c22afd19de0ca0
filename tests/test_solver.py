"""Delayed mild-solution stepper: oracles, contraction, conjugation."""

from __future__ import annotations

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

from rdslab.config import parse_config
from rdslab.errors import ParameterError, WindowExhaustedError
from rdslab.experiments import plan_experiment
from rdslab.grid import Field, Segment, make_grid, sup_norm
from rdslab.kernel import DispersalKernel
from rdslab.model import ModelParams
from rdslab.noise import NoiseProfiles, noise_rows, ou_series, sample_wiener, zero_wiener
from rdslab.pullback import advance_state, pullback_conjugated
from rdslab.semigroup import DirichletHeatSemigroup
import rdslab.experiments
import rdslab.solver
from rdslab.solver import (
    PICARD_TOL,
    DelaySolver,
    SolverConfig,
    Trajectory,
    contraction_interval,
    evaluate_feedback,
    picard_gain,
)

GRID = make_grid(20.0, 200)
SRC = Path(__file__).resolve().parents[1] / "src" / "rdslab"


def quiet_params(mu: float = 1.0, **kw) -> ModelParams:
    """Parameters with the feedback and noise switched off."""
    defaults = dict(
        mu=mu,
        epsilon=0.0,
        alpha=1.0,
        tau=0.1,
        profiles=NoiseProfiles(1),
    )
    defaults.update(kw)
    return ModelParams(**defaults)


def live_params(**kw) -> ModelParams:
    defaults = dict(mu=1.0, epsilon=1.0, alpha=1.0, tau=0.1, profiles=NoiseProfiles(1))
    defaults.update(kw)
    return ModelParams(**defaults)


def quiet_path(params, dt, horizon, m=None):
    need = 40.0 / params.mu + params.tau
    n = np.ceil(need / dt)
    return zero_wiener(m or params.m, -n * dt, max(horizon, dt), dt)


def live_path(params, dt, horizon, seed, m=None):
    need = 40.0 / params.mu + params.tau + 1.0
    n = np.ceil(need / dt)
    return sample_wiener(m or params.m, -n * dt, max(horizon, dt), dt, seed)


def frame_at(traj, t: float) -> np.ndarray:
    """The trajectory's field at lattice time t >= -tau."""
    return traj.values[traj.history_frames + int(round(t / traj.dt))]


def steps_of(traj) -> int:
    return traj.values.shape[0] - 1 - traj.history_frames


# ----------------------------------------------------------------- feedback


def test_feedback_is_zero_at_epsilon_zero():
    params = quiet_params()
    f = Field(GRID, np.sin(GRID.nodes))
    z = Field.zero(GRID)
    out = evaluate_feedback(params, f, z)
    assert np.all(out.values == 0.0)


def test_feedback_constant_argument_erf_profile():
    # constant argument c: feedback = eps * f(c) * (image of the constant 1),
    # which is the erf profile away from the right truncation edge
    params = live_params(epsilon=0.8)
    c = 0.6
    f = Field(GRID, np.full(GRID.nodes.size, c))
    z = Field.zero(GRID)
    out = evaluate_feedback(params, f, z)
    inner = GRID.nodes <= GRID.length / 2.0
    expected = (
        params.epsilon
        * params.nonlinearity.value(c)
        * erf(GRID.nodes[inner] / (2.0 * np.sqrt(params.alpha)))
    )
    assert np.max(np.abs(out.values[inner] - expected)) <= 1e-9
    assert out.values[0] == 0.0


def test_feedback_lipschitz_estimate():
    params = live_params(epsilon=1.5)
    rng = np.random.default_rng(0)
    a = Field(GRID, rng.uniform(-1, 1, GRID.nodes.size))
    b = Field(GRID, rng.uniform(-1, 1, GRID.nodes.size))
    z = Field(GRID, rng.uniform(-1, 1, GRID.nodes.size))
    fa = evaluate_feedback(params, a, z)
    fb = evaluate_feedback(params, b, z)
    gap = sup_norm(Field(GRID, fa.values - fb.values))
    assert gap <= params.feedback_lipschitz * sup_norm(Field(GRID, a.values - b.values)) + 1e-12


def test_feedback_accepts_prebuilt_kernel():
    params = live_params()
    op = DispersalKernel(params.alpha, GRID)
    f = Field(GRID, np.tanh(GRID.nodes))
    z = Field.zero(GRID)
    assert np.array_equal(
        evaluate_feedback(params, f, z).values,
        evaluate_feedback(params, f, z, kernel=op).values,
    )


# ------------------------------------------------------- contraction window


def test_contraction_interval_cases():
    assert contraction_interval(quiet_params(mu=1.0, epsilon=0.5)) is None
    two = live_params(mu=1.0, epsilon=2.0)
    assert contraction_interval(two) == pytest.approx(0.5 * np.log(2.0))
    assert contraction_interval(two) == pytest.approx(0.34657359027997264)
    boundary = live_params(mu=1.0, epsilon=1.0)
    assert contraction_interval(boundary) is None


def test_picard_gain_monotone():
    params = live_params(mu=1.0, epsilon=2.0)
    t1 = contraction_interval(params)
    assert picard_gain(params, t1) == pytest.approx(2.0 * (1.0 - np.exp(-t1)))
    assert picard_gain(params, 0.5 * t1) < picard_gain(params, t1) < 1.0


# ------------------------------------------------------------ linear oracle


def test_zero_forcing_matches_semigroup_closed_form():
    params = quiet_params(mu=1.0)
    dt = 0.01
    solver = DelaySolver(GRID, params, SolverConfig(dt))
    path = quiet_path(params, dt, 1.0)
    a = 1.0
    psi = Segment.constant(
        Field(GRID, GRID.nodes * np.exp(-(GRID.nodes ** 2) / (4 * a))),
        params.tau,
        dt,
    )
    traj = solver.solve(psi, path, 1.0)
    t = 1.0
    exact = (
        np.exp(-params.mu * t)
        * (a / (a + t)) ** 1.5
        * GRID.nodes
        * np.exp(-(GRID.nodes ** 2) / (4.0 * (a + t)))
    )
    out = frame_at(traj, t)
    rel = np.max(np.abs(out - exact)) / np.max(np.abs(exact))
    assert rel <= 1e-4
    # decay estimate along the way
    for s in (0.2, 0.6, 1.0):
        assert sup_norm(Field(GRID, frame_at(traj, s))) <= np.exp(-params.mu * s) * sup_norm(psi.frame(psi.n_frames - 1)) + 1e-9


def test_zero_everything_stays_zero():
    params = quiet_params()
    dt = 0.02
    solver = DelaySolver(GRID, params, SolverConfig(dt))
    path = quiet_path(params, dt, 0.5)
    psi = Segment.constant(Field.zero(GRID), params.tau, dt)
    traj = solver.solve(psi, path, 0.5)
    assert np.all(traj.values == 0.0)


# -------------------------------------------------------------- validation


def test_solver_config_validation():
    with pytest.raises(ParameterError, match="dt"):
        SolverConfig(0.0)
    with pytest.raises(ParameterError, match="mode"):
        SolverConfig(0.01, mode="magic")
    params = live_params(tau=0.1)
    with pytest.raises(ParameterError, match="tau"):
        DelaySolver(GRID, params, SolverConfig(0.03))


def test_picard_mode_requires_room_below_contraction_window():
    params = live_params(mu=1.0, epsilon=2.0, tau=0.4)  # window ~ 0.3466
    with pytest.raises(ParameterError, match="contraction"):
        DelaySolver(GRID, params, SolverConfig(0.4, mode="picard"))


def test_horizon_and_path_checks():
    params = live_params()
    dt = 0.01
    solver = DelaySolver(GRID, params, SolverConfig(dt))
    psi = Segment.constant(Field.zero(GRID), params.tau, dt)
    path = live_path(params, dt, 0.3, seed=1)
    with pytest.raises(ParameterError, match="horizon"):
        solver.solve(psi, path, 0.005)
    short = sample_wiener(params.m, -1.0, 0.3, dt, 1)
    with pytest.raises(WindowExhaustedError):
        solver.solve(psi, short, 0.3)
    coarse = sample_wiener(params.m, -45.0, 0.3, 0.02, 1)
    with pytest.raises(ParameterError, match="dt"):
        solver.solve(psi, coarse, 0.3)


def test_solver_rejects_histories_off_its_lattice():
    params = live_params(tau=0.1)
    dt = 0.01
    solver = DelaySolver(GRID, params, SolverConfig(dt))
    path = live_path(params, dt, 0.3, seed=1)
    bump = lambda xi, x: x * np.exp(-x)
    cases = [
        (Segment.from_function(GRID, 2 * params.tau, dt, bump), "tau"),
        (Segment.from_function(GRID, params.tau, 2 * dt, bump), "dt"),
        (Segment.from_function(GRID, params.tau, dt / 2, bump), "dt"),
        (Segment.from_function(make_grid(10.0, 100), params.tau, dt, bump), "grid"),
        (Segment.from_function(GRID, params.tau, dt, lambda xi, x: np.exp(-x)), "x = 0"),
    ]
    for psi, named in cases:
        with pytest.raises(ParameterError, match=named):
            solver.solve(psi, path, 0.3)
        with pytest.raises(ParameterError, match=named):
            solver.terminal_segments([Segment.from_function(GRID, params.tau, dt, bump), psi], path, 0.3)
    # a tau and dt within the lattice tolerance of the solver's are accepted
    near = Segment.from_function(GRID, params.tau * (1 + 1e-12), dt * (1 + 1e-12), bump)
    assert steps_of(solver.solve(near, path, 0.3)) == 30


def test_path_may_be_finer_than_solver_lattice():
    params = live_params()
    solver = DelaySolver(GRID, params, SolverConfig(0.02))
    psi = Segment.constant(Field.zero(GRID), params.tau, 0.02)
    fine = live_path(params, 0.01, 0.3, seed=2)
    traj = solver.solve(psi, fine, 0.3)
    assert steps_of(traj) == 15


# ----------------------------------------------------------- trajectory API


def test_trajectory_indexing_contracts():
    params = live_params()
    dt = 0.01
    solver = DelaySolver(GRID, params, SolverConfig(dt))
    psi = Segment.from_function(GRID, params.tau, dt, lambda xi, x: (1 + xi) * x * np.exp(-x))
    path = live_path(params, dt, 0.5, seed=3)
    traj = solver.solve(psi, path, 0.5)
    m = traj.history_frames
    assert m == 10 and steps_of(traj) == 50
    assert np.array_equal(traj.values[: m + 1], psi.values)
    seg = traj.terminal_segment
    assert (seg.tau, seg.dt) == (params.tau, dt)
    assert np.array_equal(seg.values, traj.values[-(m + 1) :])
    assert np.array_equal(seg.frame(seg.n_frames - 1).values, frame_at(traj, 0.5))


def test_trajectory_requires_whole_history_frames_like_segment():
    grid = make_grid(1.0, 10)
    with pytest.raises(ParameterError, match="tau"):
        Segment(grid, 0.1, 0.03, np.zeros((4, 11)))
    with pytest.raises(ParameterError, match="tau"):
        Trajectory(grid, 0.1, 0.03, np.zeros((4, 11)))
    with pytest.raises(ParameterError, match="shape"):
        Trajectory(grid, 0.1, 0.025, np.zeros((4, 11)))  # shorter than the history
    values = np.arange(77.0).reshape(7, 11)
    traj = Trajectory(grid, 0.1, 0.025, values)
    assert traj.history_frames == 4 and steps_of(traj) == 2
    assert np.array_equal(traj.terminal_segment.values, values[2:])


def test_all_frames_dirichlet():
    params = live_params()
    dt = 0.01
    solver = DelaySolver(GRID, params, SolverConfig(dt))
    psi = Segment.from_function(GRID, params.tau, dt, lambda xi, x: x * np.exp(-x))
    path = live_path(params, dt, 0.5, seed=4)
    traj = solver.solve(psi, path, 0.5)
    assert np.all(traj.values[:, 0] == 0.0)


# ------------------------------------------------------------------ memory


def test_a_solve_holds_one_state_stack():
    # the OU values and each delay block's noise rows are small next to the
    # (frames, 1, nodes) stack, the solve's one array of its horizon's size
    params = live_params(profiles=NoiseProfiles(2))
    dt, horizon = 0.01, 20.0
    solver = DelaySolver(GRID, params, SolverConfig(dt))
    psi = Segment.from_function(GRID, params.tau, dt, lambda xi, x: x * np.exp(-x))
    path = live_path(params, dt, horizon, seed=4)
    tracemalloc.start()
    try:
        traj = solver.solve(psi, path, horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.values.shape[0] - 1 - traj.history_frames == 2000
    assert peak < 1.5 * traj.values.nbytes


def test_a_picard_solve_holds_two_state_stacks():
    # a sweep reads the previous sweep, whose frames then take the change
    params = live_params(epsilon=2.0)
    dt, horizon = 0.005, 2.0
    solver = DelaySolver(GRID, params, SolverConfig(dt, mode="picard"))
    psi = Segment.from_function(GRID, params.tau, dt, lambda xi, x: x * np.exp(-x))
    path = live_path(params, dt, horizon, seed=6)
    solver.noise_series(path, horizon)  # the OU window kernel is cached on first use
    tracemalloc.start()
    try:
        traj, report = solver.picard_solve(psi, path, horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.iterations > 2
    assert peak < 2.5 * traj.values.nbytes


def test_live_solvers_share_their_matrices_and_freed_ones_are_rebuilt(monkeypatch):
    # the matrix table holds its entries weakly: a matrix is shared while a
    # holder lives and assembled afresh once none does
    builds = []
    assemble = rdslab.quadrature.operator_matrix
    monkeypatch.setattr(rdslab.quadrature, "operator_matrix",
                        lambda *args, **kw: builds.append(args[2]) or assemble(*args, **kw))
    grid, params, cfg = make_grid(7.0, 35), live_params(), SolverConfig(0.02)
    first = DelaySolver(grid, params, cfg)
    second = DelaySolver(grid, params, cfg)
    assert second._step_full is first._step_full
    assert second._step_half is first._step_half
    assert second.dispersal.matrix is first.dispersal.matrix
    assert len(builds) == 3
    del first, second
    third = DelaySolver(grid, params, cfg)
    assert len(builds) == 6
    assert not third._step_full.flags.writeable


def test_segments_do_not_pin_their_trajectory():
    params = live_params()
    dt = 0.01
    solver = DelaySolver(GRID, params, SolverConfig(dt))
    psi = Segment.from_function(GRID, params.tau, dt, lambda xi, x: x * np.exp(-x))
    traj = solver.solve(psi, live_path(params, dt, 0.5, seed=5), 0.5)
    assert not np.shares_memory(traj.terminal_segment.values, traj.values)


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_terminal_segments_hold_a_window_not_the_horizon():
    # the OU values are a few numbers per frame; the states are a window
    # of delay blocks, so only the OU part of the peak grows with the horizon
    grid = make_grid(20.0, 24)
    params = live_params()
    dt = 0.01
    solver = DelaySolver(grid, params, SolverConfig(dt))
    psi = Segment.from_function(grid, params.tau, dt, lambda xi, x: x * np.exp(-x))
    peaks = {}
    for horizon in (2.0, 20.0):
        path = live_path(params, dt, horizon, seed=4)
        solver.noise_series(path, horizon)  # the OU window kernel is cached on first use
        peaks[horizon] = [
            _peak_bytes(lambda: solver.noise_series(path, horizon)),
            _peak_bytes(lambda: solver.terminal_segments([psi], path, horizon)),
            _peak_bytes(lambda: solver.solve(psi, path, horizon)),
        ]
    ou, windowed, stack = (b - a for a, b in zip(peaks[2.0], peaks[20.0]))
    states = 1800 * psi.values[0].nbytes  # the 1,800 frames horizon 20 adds
    assert windowed <= ou + 0.01 * states
    assert stack >= ou + 0.9 * states


@pytest.mark.parametrize("batch", [1, 40])
@pytest.mark.parametrize("depth", [2, 10])
def test_a_batch_holds_at_most_the_stack_its_plan_counts(batch, depth):
    # absorbing's grid and delay, N = 200 and m = 10 steps: the plan counts its
    # deepest batch, the one measured here with the record's OU series made
    spec = parse_config(f"experiment = absorbing\nseed = 7\nsegments = {batch}\nt_max = {depth}\n")
    plan, params, dt = plan_experiment(spec), spec.model_params(), spec["dt"]
    solver = DelaySolver(spec.grid(), params, SolverConfig(dt))
    assert (spec["N"], solver.delay_steps) == (200, 10)
    path = sample_wiener(params.m, *plan["window"], dt, 7)
    solver.noise_series(path, 0.0)
    shapes = [lambda xi, x, j=j: x * np.exp(-x) * (1.0 + j) for j in range(batch)]
    psis = [Segment.from_function(spec.grid(), params.tau, dt, shape) for shape in shapes]
    assert _peak_bytes(lambda: pullback_conjugated(solver, psis, path, float(depth))) <= plan.stack


# ------------------------------------------------------------- picard mode


def test_picard_ratio_below_gain_and_matches_steps():
    params = live_params(mu=1.0, epsilon=2.0, tau=0.1)
    dt = 0.005
    t1 = contraction_interval(params)
    horizon = np.floor(0.9 * t1 / dt) * dt
    picard = DelaySolver(GRID, params, SolverConfig(dt, mode="picard"))
    steps = DelaySolver(GRID, params, SolverConfig(dt))
    psi = Segment.from_function(GRID, params.tau, dt, lambda xi, x: x * np.exp(-x) * (1 + xi))
    path = live_path(params, dt, horizon, seed=5)
    traj, report = picard.picard_solve(psi, path, horizon)
    assert report.changes[-1] <= PICARD_TOL
    assert report.max_ratio <= picard_gain(params, horizon) + 1e-6
    ref = steps.solve(psi, path, horizon)
    assert np.max(np.abs(traj.values - ref.values)) <= 1e-8 + dt


def test_picard_exact_after_enough_sweeps():
    # each sweep extends exact agreement by one delay window, so
    # ceil(horizon / tau) sweeps reproduce the stepping solution exactly
    params = live_params(mu=1.0, epsilon=2.0, tau=0.1)
    dt = 0.005
    horizon = 0.3
    picard = DelaySolver(GRID, params, SolverConfig(dt, mode="picard"))
    psi = Segment.from_function(GRID, params.tau, dt, lambda xi, x: x * np.exp(-x))
    path = live_path(params, dt, horizon, seed=6)
    traj, report = picard.picard_solve(psi, path, horizon)
    assert report.iterations <= int(np.ceil(horizon / params.tau)) + 1
    assert report.changes[-1] == 0.0


def test_the_plan_and_picard_solve_read_one_sweep_bound(monkeypatch):
    # one definition, which the plan's work count and the solve's sweep loop
    # both call: bound it below the 4 sweeps the defaults take, and both follow
    assert rdslab.experiments.picard_sweeps is rdslab.solver.picard_sweeps
    for module in (rdslab.solver, rdslab.experiments):
        monkeypatch.setattr(module, "picard_sweeps", lambda n, m: 2)
    spec = parse_config("experiment = picard-contraction\nseed = 7\n")
    plan = plan_experiment(spec)
    params, dt = spec.model_params(), spec["dt"]
    assert plan.steps == (2 + 1) * round(plan["horizon"] / dt)
    solver = DelaySolver(spec.grid(), params, SolverConfig(dt, mode="picard"))
    psi = Segment.from_function(spec.grid(), params.tau, dt, lambda xi, x: x * np.exp(-x))
    path = sample_wiener(params.m, *plan["window"], dt, 7)
    _, report = solver.picard_solve(psi, path, plan["horizon"])
    assert report.iterations == 2 and report.changes[-1] > PICARD_TOL


def test_picard_trajectory_equals_steps_bit_for_bit():
    params = live_params(mu=1.0, epsilon=2.0, tau=0.1, profiles=NoiseProfiles(2))
    dt = 0.005
    horizon = np.floor(0.9 * contraction_interval(params) / dt) * dt
    psi = Segment.from_function(GRID, params.tau, dt, lambda xi, x: x * np.exp(-x) * (1 + xi))
    path = live_path(params, dt, horizon, seed=11)
    picard, _ = DelaySolver(GRID, params, SolverConfig(dt, mode="picard")).picard_solve(psi, path, horizon)
    steps = DelaySolver(GRID, params, SolverConfig(dt)).solve(psi, path, horizon)
    assert np.array_equal(picard.values, steps.values)


# ---------------------------------------------------------------- batching


def test_batch_of_one_is_solve_and_batches_rerun_byte_identical():
    params = live_params(profiles=NoiseProfiles(2))
    dt, horizon = 0.01, 0.5
    solver = DelaySolver(GRID, params, SolverConfig(dt))
    psis = [
        Segment.from_function(GRID, params.tau, dt, lambda xi, x, a=a: a * x * np.exp(-x) * (1 + xi))
        for a in (1.0, -2.0, 0.5)
    ]
    path = live_path(params, dt, horizon, seed=12)
    single = [solver.solve(psi, path, horizon).terminal_segment for psi in psis]
    assert np.array_equal(solver.terminal_segments(psis[:1], path, horizon)[0].values, single[0].values)
    batch = solver.terminal_segments(psis, path, horizon)
    again = solver.terminal_segments(psis, path, horizon)
    for one, member, rerun in zip(single, batch, again):
        assert np.array_equal(member.values, rerun.values)
        # the batch sums the same products in another order: last bits only
        assert np.max(np.abs(member.values - one.values)) <= 1e-13
    with pytest.raises(ParameterError, match="dt"):
        other = Segment.from_function(GRID, params.tau, dt / 2, lambda xi, x: 0 * x)
        solver.terminal_segments([psis[0], other], path, horizon)


# ------------------------------------------------------------ delay blocks


def _frame_by_frame(solver, psis, path, horizon):
    """Oracle: the step loop without delay blocks.  Step k sits at absolute
    step phase + k, phase being the path origin in steps of dt, and forms
    its own feedback and forcing as rows (phase + k) mod m of a zero
    (m B)-row product, B = 1 without feedback; a lone history steps S(dt)
    as plain vectors."""
    params, m, dt = solver.params, solver.delay_steps, solver.cfg.dt
    n = int(round(horizon / dt))
    phase = path.origin // int(round(dt / path.dt_knot)) % m
    out = np.empty((m + n + 1, len(psis), GRID.n_cells + 1))
    for b, psi in enumerate(psis):
        out[: m + 1, b] = psi.values
    states = out[:, 0] if len(psis) == 1 else out
    z = solver.noise_series(path, horizon)
    z_rows, q_rows = solver.field_rows(z), solver.field_rows(z, laplacian=True)
    full = solver.semigroup.operator(dt, params.mu, "spline").T
    half = solver.semigroup.operator(dt / 2.0, params.mu, "spline").T
    feedback = params.epsilon != 0.0
    b = len(psis) if feedback else 1
    for k in range(n):
        r = (phase + k) % m
        rows = slice(r * b, (r + 1) * b)
        force = np.zeros((m * b, GRID.n_cells + 1))
        force[rows] = q_rows[k + m]
        if feedback:
            arg = np.zeros_like(force)
            arg[rows] = out[k] + z_rows[k]
            f = params.nonlinearity.value(arg)
            force[rows] += params.epsilon * (f @ solver.dispersal.matrix.T)[rows]
        g = dt * (force @ half)[rows]
        np.matmul(states[k + m], full, out=states[k + m + 1])
        states[k + m + 1] += g if len(psis) > 1 else g[0]
    return out


# m = 10 with 37 steps ends in a partial block; m = 1 makes every block one frame
_BLOCK_CASES = pytest.mark.parametrize(
    "tau, dt, horizon", [(0.1, 0.01, 0.37), (0.02, 0.02, 0.3)], ids=["m10-partial", "m1"]
)
_FEEDBACK = {"live": {}, "eps0": {"epsilon": 0.0}}


def _block_psis(tau, dt):
    return [
        Segment.from_function(GRID, tau, dt, lambda xi, x, a=a: a * x * np.exp(-x) * (1 + 3 * xi))
        for a in (1.0, -2.0, 0.5, 3.0, -0.7)
    ]


@_BLOCK_CASES
@pytest.mark.parametrize("feedback", list(_FEEDBACK))
def test_delay_blocks_reproduce_frame_by_frame_loop(tau, dt, horizon, feedback):
    params = live_params(tau=tau, profiles=NoiseProfiles(2), **_FEEDBACK[feedback])
    solver = DelaySolver(GRID, params, SolverConfig(dt))
    psis = _block_psis(tau, dt)
    m = solver.delay_steps
    # the path starts on a block boundary; its shift by -3 steps does not
    base = live_path(params, dt, horizon, seed=21)
    for path in (base, base.shift(-3 * dt)):
        # a batch's one output is its terminal segments
        for b in (1, 2, 5):
            ref = _frame_by_frame(solver, psis[:b], path, horizon)
            segs = solver.terminal_segments(psis[:b], path, horizon)
            assert len(segs) == b
            for j, seg in enumerate(segs):
                assert np.array_equal(seg.values, ref[-(m + 1) :, j])
        ref = _frame_by_frame(solver, psis[:1], path, horizon)[:, 0]
        assert np.array_equal(solver.solve(psis[0], path, horizon).values, ref)


@_BLOCK_CASES
def test_picard_delay_blocks_reproduce_frame_by_frame_loop(tau, dt, horizon, monkeypatch):
    # a sweep reads its delayed states from the previous sweep, not from out;
    # sweeps run until one changes nothing
    monkeypatch.setattr(rdslab.solver, "PICARD_TOL", 1e-300)
    params = live_params(tau=tau)
    picard = DelaySolver(GRID, params, SolverConfig(dt, mode="picard"))
    base = live_path(params, dt, horizon, seed=22)
    psi = _block_psis(tau, dt)[0]
    for path in (base, base.shift(-3 * dt)):
        traj, report = picard.picard_solve(psi, path, horizon)
        assert report.changes[-1] == 0.0
        assert np.array_equal(traj.values, _frame_by_frame(picard, [psi], path, horizon)[:, 0])


# steps 37 end inside the first window; 128 ends a window at m = 1 and 2
# and mid-block at m = 10; 157 ends mid-window and mid-block at m = 2 and
# 10; m = 70 makes each window one delay block, moved with a frame of overlap
@pytest.mark.parametrize("m", [1, 2, 10, 70])
@pytest.mark.parametrize("components", [1, 3])
def test_terminal_segments_equal_solve_batch(m, components, monkeypatch):
    # the reference is the batch's whole stack: one window over the horizon
    dt = 0.01
    params = live_params(tau=m * dt, profiles=NoiseProfiles(components))
    solver = DelaySolver(GRID, params, SolverConfig(dt))
    psis = _block_psis(params.tau, dt)
    for steps in (37, 128, 157):
        horizon = steps * dt
        # the path's knots are twice as fine as the frames
        path = live_path(params, dt / 2, horizon, seed=30 + steps)
        for b in (1, 5):
            segs = solver.terminal_segments(psis[:b], path, horizon)
            with monkeypatch.context() as whole:
                whole.setattr(rdslab.solver, "_WINDOW_STEPS", steps)
                ref = solver.terminal_segments(psis[:b], path, horizon)
            assert len(segs) == b
            for seg, stack in zip(segs, ref):
                assert np.array_equal(seg.values, stack.values)
        one = solver.terminal_segments(psis[:1], path, horizon)[0]
        assert np.array_equal(one.values, solver.solve(psis[0], path, horizon).terminal_segment.values)


@pytest.mark.parametrize("b", [1, 2, 5])
def test_restart_at_every_phase_continues_the_run_bit_for_bit(b, monkeypatch):
    # m = 10: a restart after s = 1 .. 10 steps starts its leg at every phase
    # of the block lattice, and the direct run's 157 steps cross two window
    # edges, which sit on block boundaries and so add no product of their own
    dt, n = 0.01, 157
    params = live_params(tau=10 * dt, profiles=NoiseProfiles(2))
    solver = DelaySolver(GRID, params, SolverConfig(dt))
    psis = _block_psis(params.tau, dt)[:b]
    base = live_path(params, dt / 2, n * dt, seed=40)
    products = []
    apply = DispersalKernel.apply_values

    def record(kernel, values, out=None):
        products.append(values.shape)
        return apply(kernel, values, out)

    monkeypatch.setattr(DispersalKernel, "apply_values", record)
    for path in (base, base.shift(-7 * dt)):
        products.clear()
        direct = solver.terminal_segments(psis, path, n * dt)
        phase = path.origin // 2 % 10
        assert products == [(10 * b, GRID.n_cells + 1)] * -(-(phase + n) // 10)
        for s in range(1, 11):
            first = solver.terminal_segments(psis, path, s * dt)
            second = solver.terminal_segments(first, path.shift(s * dt), (n - s) * dt)
            for seg, ref in zip(second, direct):
                assert np.array_equal(seg.values, ref.values)
            if b == 1:
                leg = solver.solve(psis[0], path, s * dt).terminal_segment
                leg = solver.solve(leg, path.shift(s * dt), (n - s) * dt).terminal_segment
                assert np.array_equal(leg.values, direct[0].values)


def test_gemm_row_bits_do_not_depend_on_the_other_rows():
    # The restart exactness above rests on this property of the BLAS: a row
    # of an M-row product depends on M and on the row's place, never on the
    # other rows' values or on where the buffers sit in memory.
    half = DirichletHeatSemigroup(GRID).operator(0.005, 1.0, "spline")
    rng = np.random.default_rng(5)
    for mat in (half.T, DispersalKernel(1.0, GRID).matrix.T):
        for rows in (1, 2, 5, 10, 20, 50, 70):
            x = rng.standard_normal((rows, GRID.n_cells + 1))
            ref = x @ mat
            for r in {0, rows // 2, rows - 1}:
                y = np.empty(x.size + 1)[1:].reshape(x.shape)  # off by one double
                y[:] = rng.standard_normal(x.shape)
                y[r] = x[r]
                assert np.array_equal((y @ mat)[r], ref[r]), (rows, r)


# ------------------------------------------------------------- conjugation


def test_u_v_roundtrip_and_dirichlet():
    # advance_state moves u to v with the solver's own noise rows and back:
    # u - rows on the terminal frames is the v-run from phi - rows on entry
    params = live_params(mu=1.0, epsilon=1.0, tau=0.1, profiles=NoiseProfiles(2))
    dt = 0.01
    solver = DelaySolver(GRID, params, SolverConfig(dt))
    phi = Segment.from_function(GRID, params.tau, dt, lambda xi, x: x * np.exp(-x))
    path = live_path(params, dt, 0.5, seed=7)
    m = solver.delay_steps
    z = solver.field_rows(solver.noise_series(path, 0.5))
    u = advance_state(solver, phi, path, 0.5)
    v_entry = Segment(GRID, params.tau, dt, phi.values - z[: m + 1])
    v = solver.solve(v_entry, path, 0.5).terminal_segment
    assert np.max(np.abs(u.values - z[-(m + 1) :] - v.values)) <= 1e-12
    # noise profiles vanish at 0, so u inherits the boundary condition
    assert np.max(np.abs(u.values[:, 0])) == 0.0
    # u really differs from v (noise is on)
    assert np.max(np.abs(u.values - v.values)) > 1e-3


def test_zero_noise_conjugation_is_identity():
    params = quiet_params(epsilon=0.0)
    dt = 0.01
    solver = DelaySolver(GRID, params, SolverConfig(dt))
    psi = Segment.constant(Field(GRID, GRID.nodes * np.exp(-GRID.nodes)), params.tau, dt)
    path = quiet_path(params, dt, 0.3)
    u = advance_state(solver, psi, path, 0.3)
    assert np.array_equal(u.values, solver.solve(psi, path, 0.3).terminal_segment.values)


def test_noise_series_rows_depend_only_on_their_time():
    # the u-runs read the exit rows on the shifted path: they must be the
    # whole run's rows bit for bit, also when the path is finer than dt
    params = live_params(tau=0.1, profiles=NoiseProfiles(2))
    dt = 0.02
    solver = DelaySolver(GRID, params, SolverConfig(dt))
    path = live_path(params, 0.01, 0.5, seed=8)
    m = solver.delay_steps

    def field_and_laplacian_rows(z):
        return solver.field_rows(z), solver.field_rows(z, laplacian=True)

    whole = field_and_laplacian_rows(solver.noise_series(path, 0.5))
    for k in (0, 1, 13, 25):
        part = field_and_laplacian_rows(solver.noise_series(path.shift(k * dt), 0.0))
        for rows, all_rows in zip(part, whole):
            assert np.array_equal(rows, all_rows[k : k + m + 1])


def _callers(name: str) -> set[str]:
    """'module:function' for every function in the package that calls name."""
    found = set()
    for module in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for call in ast.walk(fn):
                    func = getattr(call, "func", None)
                    if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                        found.add(f"{module.stem}:{fn.name}")
    return found


def test_only_field_rows_builds_noise_rows():
    # one route from OU values and the profiles to noise rows: the step
    # kernel's delay blocks and the pullback u-runs both read
    # DelaySolver.field_rows
    assert _callers("noise_rows") == {"solver:field_rows"}


# ------------------------------------------------- quantitative structure


def test_lipschitz_in_initial_data():
    # sup-distance at time T grows at most like e^{(eps lip e^{mu tau} - mu) T + mu tau}
    params = live_params(mu=1.0, epsilon=1.0, tau=0.1)
    dt = 0.01
    solver = DelaySolver(GRID, params, SolverConfig(dt))
    path = live_path(params, dt, 1.0, seed=8)
    psi1 = Segment.from_function(GRID, params.tau, dt, lambda xi, x: x * np.exp(-x))
    psi2 = Segment.from_function(GRID, params.tau, dt, lambda xi, x: x * np.exp(-x) + 0.2 * np.sin(x) * x * np.exp(-x / 2))
    t1 = solver.solve(psi1, path, 1.0)
    t2 = solver.solve(psi2, path, 1.0)
    d0 = float(np.max(np.abs(psi1.values - psi2.values)))
    growth = params.feedback_lipschitz * np.exp(params.mu * params.tau) - params.mu
    for t in (0.25, 0.5, 1.0):
        dist = sup_norm(Field(GRID, frame_at(t1, t) - frame_at(t2, t)))
        bound = np.exp(growth * t + params.mu * params.tau) * d0
        assert dist <= bound + 1e-9


def test_variation_of_constants_consistency():
    # against direct fine quadrature of the mild integral over [0, tau]
    params = live_params(mu=1.0, epsilon=1.0, tau=0.2, profiles=NoiseProfiles(2))
    dt = 0.02
    fine = 10
    dr = dt / fine
    solver = DelaySolver(GRID, params, SolverConfig(dt))
    psi_fn = lambda xi, x: x * np.exp(-x) * (1.0 + 0.5 * xi)
    psi = Segment.from_function(GRID, params.tau, dt, psi_fn)
    path = live_path(params, dr, params.tau, seed=9)
    traj = solver.solve(psi, path, params.tau)

    flow = DirichletHeatSemigroup(GRID)
    op = DispersalKernel(params.alpha, GRID)
    t_end = params.tau
    z = ou_series(path, solver.ou_params, np.arange(0, int(round(t_end / dr))) * dr - t_end)
    z_rows = noise_rows(params.profiles.values(GRID.nodes), z)
    acc = flow.operator(t_end, params.mu) @ psi.frame(psi.n_frames - 1).values
    for j in range(int(round(t_end / dr))):
        r = j * dr
        delayed = Field(GRID, psi_fn(r - t_end, GRID.nodes))
        zn = Field(GRID, z_rows[j])
        force = evaluate_feedback(params, delayed, zn, kernel=op).values
        zq = ou_series(path, solver.ou_params, r)
        force = force + noise_rows(params.profiles.second_derivatives(GRID.nodes), zq)[0]
        weight = flow.operator(t_end - r, params.mu) if t_end - r > 0 else np.eye(GRID.nodes.size)
        acc = acc + dr * (weight @ force)
    gap = np.max(np.abs(traj.values[-1] - acc))
    assert gap <= 5.0 * dt


def test_first_order_accuracy():
    params = live_params(mu=1.0, epsilon=1.0, tau=0.2)
    horizon = 1.0
    dt_ref = 0.0025
    path = zero_wiener(params.m, -41.0, horizon, dt_ref)
    psi_fn = lambda xi, x: x * np.exp(-x) * (1.0 + 0.5 * np.sin(3 * xi))
    outs = {}
    for dt in (0.02, 0.01, dt_ref):
        solver = DelaySolver(GRID, params, SolverConfig(dt))
        psi = Segment.from_function(GRID, params.tau, dt, psi_fn)
        outs[dt] = solver.solve(psi, path, horizon).values[-1]
    e1 = np.max(np.abs(outs[0.02] - outs[dt_ref]))
    e2 = np.max(np.abs(outs[0.01] - outs[dt_ref]))
    assert 1.5 <= e1 / e2 <= 3.0
