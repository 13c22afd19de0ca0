"""Pullback machinery: radius formula, absorption, random fixed point."""

from __future__ import annotations

import numpy as np
import pytest

from rdslab.config import parse_config
from rdslab.errors import ConditionViolatedError, ParameterError
from rdslab.experiments import run_experiment
from rdslab.grid import Field, Segment, make_grid, segment_co_norm, sup_norm
from rdslab.model import ModelParams
from rdslab.noise import NoiseProfiles, sample_wiener, zero_wiener
from rdslab.pullback import (
    DerivedConstants,
    absorbing_radius,
    advance_state,
    cocycle_residual,
    derived_constants,
    fixed_point_estimate,
    profile_constant,
    pullback_bound,
    pullback_conjugated,
    pullback_state,
    transient_envelope,
)
from rdslab.solver import DelaySolver, SolverConfig

GRID = make_grid(20.0, 200)


def absorbing_params() -> ModelParams:
    return ModelParams(mu=2.0, epsilon=1.0, alpha=1.0, tau=0.25, profiles=NoiseProfiles(1))


def fixedpoint_params() -> ModelParams:
    return ModelParams(mu=3.0, epsilon=1.0, alpha=1.0, tau=0.5, profiles=NoiseProfiles(1))


# ------------------------------------------------------------ radius formula


def test_absorbing_radius_frozen_oracle():
    # independent recomputation of the closed form at
    # mu=2, tau=0.25, eps=lip=1, c=1, r_hat=1:
    #   g = e^{0.5}; radius = 2 e^{0.5} + (g/(2-g)) e^{-g}
    #            = 3.2974425414002564 + 4.6934844987231905 * 0.1922956455479649
    #            = 4.199979172951599  (recomputed independently by hand)
    params = absorbing_params()
    consts = DerivedConstants(c=1.0, r_hat=1.0)
    assert absorbing_radius(params, consts) == pytest.approx(4.199979172951599, abs=1e-14)


def test_absorbing_radius_zero_noise_reduction():
    params = absorbing_params()
    consts = DerivedConstants(c=1.0, r_hat=0.0)
    assert absorbing_radius(params, consts) == 0.0


def test_absorbing_radius_refuses_when_condition_fails():
    bad = ModelParams(mu=1.0, epsilon=1.0, alpha=1.0, tau=0.25)
    with pytest.raises(ConditionViolatedError):
        absorbing_radius(bad, DerivedConstants(c=1.0, r_hat=1.0))


def test_absorbing_radius_monotonicity_and_blowup():
    base = absorbing_params()
    c = DerivedConstants(c=1.0, r_hat=1.0)
    r1 = absorbing_radius(base, c)
    # increasing in r_hat
    assert absorbing_radius(base, DerivedConstants(c=1.0, r_hat=2.0)) > r1
    # increasing in tau (larger delay, weaker damping margin)
    more_delay = ModelParams(mu=2.0, epsilon=1.0, alpha=1.0, tau=0.3)
    assert absorbing_radius(more_delay, c) > r1
    # divergence as the gate approaches equality: eps lip e^{mu tau} -> mu
    tight = ModelParams(mu=2.0, epsilon=1.0, alpha=1.0, tau=np.log(1.999) / 2.0)
    assert absorbing_radius(tight, c) > 100.0


def test_derived_constants_from_path():
    params = absorbing_params()
    dt = 0.025
    path = sample_wiener(1, -40.0, 0.0, dt, seed=1)
    consts = derived_constants(params, GRID, path, -10.0)
    assert consts.r_hat > 0
    base = profile_constant(params, GRID)
    assert consts.c >= base  # noise-floor guard only enlarges c


def test_transient_envelope():
    params = absorbing_params()
    assert transient_envelope(params, 7.0, 0.0) == pytest.approx(7.0)
    g = params.feedback_lipschitz * np.exp(params.mu * params.tau)
    assert transient_envelope(params, 7.0, 2.0) == pytest.approx(7.0 * np.exp(-(params.mu - g) * 2.0))


# ------------------------------------------------------------- pullback runs


def test_pullback_zero_noise_linear_decay():
    # no feedback, no noise: the pullback run is the killed heat flow,
    # so the terminal norm decays like e^{-mu (t - tau)} of the data
    params = ModelParams(
        mu=1.0, epsilon=0.0, alpha=1.0, tau=0.1, profiles=NoiseProfiles(1),
    )
    dt = 0.01
    solver = DelaySolver(GRID, params, SolverConfig(dt))
    path = zero_wiener(1, -60.0, 1.0, dt)
    phi = Segment.constant(Field(GRID, GRID.nodes * np.exp(-GRID.nodes)), params.tau, dt)
    prev = None
    for t in (0.5, 1.0, 2.0):
        seg_sup = float(np.max(np.abs(pullback_conjugated(solver, phi, path, t).values)))
        bound = np.exp(-params.mu * (t - params.tau)) * sup_norm(phi.frame(0))
        assert seg_sup <= bound + 1e-9
        if prev is not None:
            assert seg_sup <= prev + 1e-12
        prev = seg_sup


def test_pullback_determinism_bit_identical():
    params = absorbing_params()
    dt = 0.025
    solver = DelaySolver(GRID, params, SolverConfig(dt))
    path = sample_wiener(1, -40.0, 0.0, dt, seed=2)
    phi = Segment.from_function(GRID, params.tau, dt, lambda xi, x: x * np.exp(-x))
    a = pullback_conjugated(solver, phi, path, 4.0)
    b = pullback_conjugated(solver, phi, path, 4.0)
    assert np.array_equal(a.values, b.values)


def test_pullback_time_must_exceed_delay():
    params = absorbing_params()
    dt = 0.025
    solver = DelaySolver(GRID, params, SolverConfig(dt))
    path = sample_wiener(1, -40.0, 0.0, dt, seed=3)
    phi = Segment.constant(Field.zero(GRID), params.tau, dt)
    with pytest.raises(ParameterError, match="pullback"):
        pullback_conjugated(solver, phi, path, 0.25)


def test_pullback_bound_holds_on_sample_runs():
    params = ModelParams(mu=1.0, epsilon=1.0, alpha=1.0, tau=0.1, profiles=NoiseProfiles(2))
    dt = 0.01
    solver = DelaySolver(GRID, params, SolverConfig(dt))
    path = sample_wiener(2, -50.0, 0.0, dt, seed=4)
    consts = derived_constants(params, GRID, path, -8.1)
    psi = Segment.from_function(GRID, params.tau, dt, lambda xi, x: np.sin(x) * x * np.exp(-x))
    limit = pullback_bound(params, consts, psi)
    for t in (2.0, 5.0, 8.0):
        seg = pullback_conjugated(solver, psi, path, t)
        assert sup_norm(seg.frame(-1)) <= limit + 1e-4


def test_pullback_bound_scales_the_feedback_bound_by_epsilon():
    # the absorbing gate admits eps = 1.2 (1.2 e^{0.5} < mu = 2), and the
    # v-forcing is then bounded by eps * M, not M: with sup |psi(0)| = 0.3,
    # M = 1 and c * r_hat = 0.5 the bound is 0.3 + (1.2 + 0.5) * 2 / 2 = 2.0
    spec = parse_config("experiment = absorbing\nseed = 1\nepsilon = 1.2\n")
    params = spec.model_params()
    assert params.epsilon == 1.2 and params.nonlinearity.bound == 1.0 and params.mu == 2.0
    peak = Field(GRID, 0.3 * GRID.nodes * np.exp(1.0 - GRID.nodes))
    psi = Segment.constant(peak, params.tau, spec["dt"])
    assert sup_norm(peak) == pytest.approx(0.3, abs=1e-15)
    consts = DerivedConstants(c=0.5, r_hat=1.0)
    assert pullback_bound(params, consts, psi) == pytest.approx(2.0, abs=1e-14)


# ------------------------------------------------------------------- cocycle


def test_cocycle_residual_trivial_legs():
    params = absorbing_params()
    dt = 0.025
    solver = DelaySolver(GRID, params, SolverConfig(dt))
    path = sample_wiener(1, -40.0, 2.0, dt, seed=5)
    psi = Segment.from_function(GRID, params.tau, dt, lambda xi, x: x * np.exp(-x))
    # only the direct run is integrated, and its terminal frame is reported
    end = solver.solve(psi, path, 1.0).terminal_segment
    sup = float(np.max(np.abs(end.values[-1])))
    assert cocycle_residual(solver, psi, path, 0.0, 1.0) == (0.0, sup)
    assert cocycle_residual(solver, psi, path, 1.0, 0.0) == (0.0, sup)
    assert cocycle_residual(solver, psi, path, 0.0, 0.0) == (0.0, float(np.max(np.abs(psi.values[-1]))))


def test_cocycle_residual_exact_restart():
    params = absorbing_params()
    dt = 0.025
    solver = DelaySolver(GRID, params, SolverConfig(dt))
    path = sample_wiener(1, -40.0, 2.0, dt, seed=6)
    psi = Segment.from_function(GRID, params.tau, dt, lambda xi, x: x * np.exp(-x))
    res, sup = cocycle_residual(solver, psi, path, 1.0, 1.0)
    # restarting from the stored delay window replays the identical
    # arithmetic, so the two-leg route reproduces the one-leg route
    # bit-for-bit -- far inside the 10 dt acceptance envelope
    assert res == 0.0 and sup > 0.0


@pytest.mark.parametrize("tau", [0.1, 0.01], ids=["m10", "m1"])
def test_cocycle_residual_exact_when_leg_blocks_do_not_align(tau):
    # the second leg starts 37 frames in, so its delay blocks of tau/dt
    # frames sit 7 frames off the direct run's at m = 10; products taken
    # one frame at a time keep the two routes bit-identical regardless
    params = ModelParams(mu=2.0, epsilon=1.0, alpha=1.0, tau=tau, profiles=NoiseProfiles(1))
    dt = 0.01
    solver = DelaySolver(GRID, params, SolverConfig(dt))
    path = sample_wiener(1, -40.0, 1.0, dt, seed=8)
    psi = Segment.from_function(GRID, tau, dt, lambda xi, x: x * np.exp(-x) * (1 + 5 * xi))
    assert cocycle_residual(solver, psi, path, 0.55, 0.37)[0] == 0.0


@pytest.mark.parametrize("tau", [0.01, 0.1, 0.7], ids=["m1", "m10", "m70"])
def test_cocycle_residual_exact_across_windows(tau):
    # the direct run steps in windows of 64 (m = 1) or 70 (m = 10, 70)
    # steps; s = 137 and s + t = 220 steps are multiples of neither
    params = ModelParams(mu=2.0, epsilon=1.0, alpha=1.0, tau=tau, profiles=NoiseProfiles(1))
    dt = 0.01
    solver = DelaySolver(GRID, params, SolverConfig(dt))
    path = sample_wiener(1, -40.0, 2.5, dt, seed=9)
    psi = Segment.from_function(GRID, tau, dt, lambda xi, x: x * np.exp(-x) * (1 + 5 * xi))
    assert cocycle_residual(solver, psi, path, 0.83, 1.37)[0] == 0.0


def test_cocycle_csv_tells_seeds_apart():
    # the residual reads 0 at every seed; the direct run's sup norm does not
    texts = [run_experiment(parse_config(f"experiment = cocycle\nseed = {seed}\n")).csv_text()
             for seed in (7, 8)]
    assert texts[0].splitlines()[0] == "dt,residual,direct_sup"
    assert [line.split(",")[1] for line in texts[0].splitlines()[1:]] == ["0", "0"]
    assert texts[0] != texts[1]


def test_cocycle_residual_validates_lattice():
    params = absorbing_params()
    dt = 0.025
    solver = DelaySolver(GRID, params, SolverConfig(dt))
    path = sample_wiener(1, -40.0, 2.0, dt, seed=7)
    psi = Segment.constant(Field.zero(GRID), params.tau, dt)
    with pytest.raises(ParameterError):
        cocycle_residual(solver, psi, path, 0.51 * dt, 1.0)
    with pytest.raises(ParameterError):
        cocycle_residual(solver, psi, path, -1.0, 1.0)


# ------------------------------------------------------ fixed-point estimate


def test_fixed_point_estimate_contracts_and_is_stationary():
    params = fixedpoint_params()
    dt = 0.01
    solver = DelaySolver(GRID, params, SolverConfig(dt))
    path = sample_wiener(1, -30.0, 1.0, dt, seed=10)
    phi1 = Segment.from_function(GRID, params.tau, dt, lambda xi, x: x * np.exp(-x) * (1 + 0.5 * xi))
    phi2 = Segment.from_function(GRID, params.tau, dt, lambda xi, x: 2.0 * np.sin(x) * np.exp(-x / 2))
    report = fixed_point_estimate(solver, phi1, phi2, path, 6.0)
    assert report.unit_factor <= params.unit_contraction_factor + 0.05
    assert report.stationarity_gap <= 10.0 * dt
    # distances contract over the time series
    pair = report.pair_distances
    assert pair[-1] < pair[0]
    assert pair[-1] < 1e-3


def test_fixed_point_distances_equal_their_oracle():
    # the report's distances are co-norms of differences of the terminal
    # segments it computes; recompute every one from the public runs
    params = fixedpoint_params()
    dt = 0.01
    solver = DelaySolver(GRID, params, SolverConfig(dt))
    path = sample_wiener(1, -30.0, 1.0, dt, seed=10)
    phi1 = Segment.from_function(GRID, params.tau, dt, lambda xi, x: x * np.exp(-x) * (1 + 0.5 * xi))
    phi2 = Segment.from_function(GRID, params.tau, dt, lambda xi, x: 2.0 * np.sin(x) * np.exp(-x / 2))
    report = fixed_point_estimate(solver, phi1, phi2, path, 4.0)

    def dist(a, b):
        return segment_co_norm(Segment(GRID, params.tau, dt, a.values - b.values))

    depths = (1.0, 2.0, 3.0, 4.0)
    ends = [pullback_state(solver, [phi1, phi2], path, t) for t in depths]
    first = [a for a, _ in ends]
    prev = pullback_state(solver, phi2, path.shift(-1.0), 3.0)
    advanced = advance_state(solver, prev, path.shift(-1.0), 1.0)
    assert report.times == depths
    assert report.pair_distances == tuple(dist(a, b) for a, b in ends)
    assert report.successive_distances == tuple(dist(first[k], first[k + 1]) for k in range(3))
    assert report.stationarity_gap == dist(advanced, first[-1])
    assert min(report.pair_distances + report.successive_distances) > 0.0


def test_fixed_point_estimate_gates_on_condition():
    weak = ModelParams(mu=1.5, epsilon=1.0, alpha=1.0, tau=0.5, profiles=NoiseProfiles(1))
    dt = 0.01
    solver = DelaySolver(GRID, weak, SolverConfig(dt))
    path = sample_wiener(1, -45.0, 1.0, dt, seed=11)
    phi1 = Segment.from_function(GRID, weak.tau, dt, lambda xi, x: x * np.exp(-x))
    phi2 = Segment.from_function(GRID, weak.tau, dt, lambda xi, x: np.sin(x) * np.exp(-x / 2))
    assert not weak.contraction_condition
    with pytest.raises(ConditionViolatedError):
        fixed_point_estimate(solver, phi1, phi2, path, 6.0)


def test_fixed_point_horizon_must_be_a_whole_number_of_steps():
    params = fixedpoint_params()
    dt = 0.01
    solver = DelaySolver(GRID, params, SolverConfig(dt))
    path = sample_wiener(1, -10.0, 1.0, dt, seed=12)
    phi = Segment.constant(Field.zero(GRID), params.tau, dt)
    # 3.6 used to run depths up to 4.0, past the horizon; 3.4 stopped at 3.0
    for horizon in (3.6, 3.4):
        with pytest.raises(ParameterError, match=f"horizon {horizon} is off the lattice of step 1.0"):
            fixed_point_estimate(solver, phi, phi, path, horizon)
    with pytest.raises(ParameterError, match="horizon 2.0 is below 3 steps"):
        fixed_point_estimate(solver, phi, phi, path, 2.0)
    # pullback depths are whole time units, so dt must divide 1
    coarse = DelaySolver(GRID, ModelParams(mu=3.0, epsilon=1.0, alpha=1.0, tau=0.3), SolverConfig(0.3))
    phi = Segment.constant(Field.zero(GRID), 0.3, 0.3)
    with pytest.raises(ParameterError, match="step 1.0 is off the lattice of step 0.3"):
        fixed_point_estimate(coarse, phi, phi, path, 3.0)


def test_advance_state_continues_the_flow():
    params = fixedpoint_params()
    dt = 0.01
    solver = DelaySolver(GRID, params, SolverConfig(dt))
    path = sample_wiener(1, -30.0, 2.0, dt, seed=12)
    phi = Segment.from_function(GRID, params.tau, dt, lambda xi, x: x * np.exp(-x))
    state1 = advance_state(solver, phi, path, 1.0)
    state2 = advance_state(solver, state1, path.shift(1.0), 1.0)
    direct = advance_state(solver, phi, path, 2.0)
    assert np.max(np.abs(state2.values - direct.values)) <= 1e-12


def test_conjugation_rows_share_one_ou_window():
    # With the path finer than the frames, the rows subtracted on [-tau, 0]
    # on entry and the rows added back on exit come from the solver's one
    # OU window, bit for bit: a zero u-history comes back as exact zeros
    # at t = 0.
    params = fixedpoint_params()
    dt, dt_path = 0.01, 0.005
    solver = DelaySolver(GRID, params, SolverConfig(dt))
    path = sample_wiener(1, -30.0, 1.0, dt_path, seed=14)
    zero_u = Segment.constant(Field.zero(GRID), params.tau, dt)
    state = advance_state(solver, zero_u, path, params.tau)
    assert np.max(np.abs(state.values[0])) == 0.0
    assert np.max(np.abs(state.values[-1])) > 0.0


def test_pullback_state_matches_conjugated_route():
    # u-level pullback = v-level pullback of the noise-adjusted data,
    # plus the noise segment at time zero
    params = fixedpoint_params()
    dt = 0.01
    solver = DelaySolver(GRID, params, SolverConfig(dt))
    path = sample_wiener(1, -30.0, 0.0, dt, seed=13)
    phi = Segment.from_function(GRID, params.tau, dt, lambda xi, x: x * np.exp(-x))
    t = 4.0
    seg = pullback_state(solver, phi, path, t)
    assert seg.values.shape == phi.values.shape
    # Dirichlet boundary survives the conjugation round trip
    assert np.max(np.abs(seg.values[:, 0])) == 0.0


def test_terminal_reconstruction_equals_full_trajectory_route():
    # pullback_state and advance_state subtract the solver's rows on
    # [-tau, 0] and add them back on the terminal frames only; the oracle
    # reads both from the whole run's rows, so they must agree bit for
    # bit, alone and in a batch.
    params = ModelParams(mu=3.0, epsilon=1.0, alpha=1.0, tau=0.5, profiles=NoiseProfiles(2))
    dt, t = 0.01, 2.0
    solver = DelaySolver(GRID, params, SolverConfig(dt))
    m = solver.delay_steps
    path = sample_wiener(2, -30.0, 0.0, 0.005, seed=15)
    shifted = path.shift(-t)
    z = solver.field_rows(solver.noise_series(shifted, t))
    phis = [
        Segment.from_function(GRID, params.tau, dt, lambda xi, x, a=a: a * x * np.exp(-x) * (1 + xi))
        for a in (1.0, -0.5)
    ]

    def v_history(phi):
        return Segment(GRID, phi.tau, phi.dt, phi.values - z[: m + 1])

    def full_u(traj):
        return (traj.values + z)[-(m + 1) :]

    alone = full_u(solver.solve(v_history(phis[0]), shifted, t))
    assert np.array_equal(pullback_state(solver, phis[0], path, t).values, alone)
    assert np.array_equal(advance_state(solver, phis[0], shifted, t).values, alone)
    batch = solver.terminal_segments([v_history(phi) for phi in phis], shifted, t)
    segs = pullback_state(solver, phis, path, t)
    for seg, v in zip(segs, batch):
        assert np.array_equal(seg.values, v.values + z[-(m + 1) :])


def test_batched_pullback_runs_match_single_runs():
    params = absorbing_params()
    dt = 0.025
    solver = DelaySolver(GRID, params, SolverConfig(dt))
    path = sample_wiener(1, -40.0, 0.0, dt, seed=16)
    psis = [
        Segment.from_function(GRID, params.tau, dt, lambda xi, x, a=a: a * x * np.exp(-x))
        for a in (1.0, 4.0, -2.0)
    ]
    segs = pullback_conjugated(solver, psis, path, 2.0)
    assert len(segs) == 3
    for seg, psi in zip(segs, psis):
        one = pullback_conjugated(solver, psi, path, 2.0)
        assert np.max(np.abs(seg.values - one.values)) <= 1e-13
        assert segment_co_norm(seg) == pytest.approx(segment_co_norm(one), abs=1e-13)
