"""Acceptance suite: twelve quantitative criteria, one test each.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.  Each test also prints a ``[criterion N]`` summary
line with the measured numbers (shown with ``-s`` or on failure).

Tolerances are pinned here and must not be loosened; the experiment
runners carry the same numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from rdslab.config import parse_config
from rdslab.errors import ConditionViolatedError
from rdslab.experiments import run_experiment
from rdslab.grid import Field, Segment, make_grid, sup_norm
from rdslab.model import ModelParams, default_profiles
from rdslab.noise import sample_wiener
from rdslab.pullback import derived_constants, fixed_point_estimate, pullback_bound, pullback_conjugated
from rdslab.semigroup import DirichletHeatSemigroup
from rdslab.solver import DelaySolver, SolverConfig

SEED = 20260814


def _run(text: str):
    return run_experiment(parse_config(text))


def _check(result, name):
    match = [c for c in result.checks if c.name == name]
    assert match, f"check {name!r} missing from {result.experiment}"
    return match[0]


def test_criterion_01_kernel_bound():
    # ratio sweep on the default grid, all three kernel widths
    worst = 0.0
    for alpha in (0.25, 1.0, 4.0):
        result = _run(f"experiment = kernel-bound\nseed = {SEED}\nalpha = {alpha}\ntrials = 100\n")
        ratios = [row[3] for row in result.rows]
        assert len(ratios) == 100
        assert max(ratios) <= 1.0 + 1e-8
        worst = max(worst, max(ratios))
    # unit-input closed form needs the wide grid so that the artificial
    # truncation edge sits far from the compared window x <= 20
    worst_erf = 0.0
    for alpha in (0.25, 1.0, 4.0):
        result = _run(
            f"experiment = kernel-bound\nseed = {SEED}\nalpha = {alpha}\nL = 40\nN = 400\ntrials = 10\n"
        )
        erf_check = _check(result, "kernel-unit-erf")
        assert erf_check.passed
        assert _check(result, "kernel-sup-ratio").passed
    print(f"[criterion 1] PASS - max sup ratio {worst:.6f} <= 1 + 1e-8; erf profile within 1e-6")


def test_criterion_02_semigroup_bounds():
    result = _run(f"experiment = semigroup-bounds\nseed = {SEED}\nfields = 20\n")
    assert len(result.rows) == 20 * 3 * 5  # fields x rates x times
    assert _check(result, "semigroup-bounds").passed
    print("[criterion 2] PASS - all four inequalities hold for 300 (field, mu, t) cases")


def test_criterion_03_semigroup_law():
    grid = make_grid(20.0, 200)
    flow = DirichletHeatSemigroup(grid, 1.0)
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        f = Field.from_function(grid, lambda x: x * np.exp(-(x ** 2) / (4.0 * a)))
        for t, s in ((1e-3, 0.1), (0.1, 0.4), (0.5, 0.5), (1.0, 4.0)):
            combined = flow.operator(t + s) @ f.values
            chained = flow.operator(t) @ (flow.operator(s) @ f.values)
            worst = max(worst, float(np.max(np.abs(combined - chained))))
    assert worst <= 1e-6
    print(f"[criterion 3] PASS - semigroup law defect {worst:.3e} <= 1e-6")


def test_criterion_04_closed_form_oracle():
    grid = make_grid(20.0, 200)
    mu, a, t = 1.0, 1.0, 0.5
    flow = DirichletHeatSemigroup(grid, mu)
    f = Field.from_function(grid, lambda x: x * np.exp(-(x ** 2) / (4.0 * a)))
    out = flow.operator(t) @ f.values
    exact = (
        np.exp(-mu * t) * (a / (a + t)) ** 1.5
        * grid.nodes * np.exp(-(grid.nodes ** 2) / (4.0 * (a + t)))
    )
    rel = float(np.max(np.abs(out - exact)) / np.max(np.abs(exact)))
    assert rel <= 1e-4
    print(f"[criterion 4] PASS - analytic flow reproduced, relative error {rel:.3e} <= 1e-4")


def test_criterion_05_ou_statistics():
    result = _run(f"experiment = ou-stats\nseed = 11\npaths = 10000\n")
    assert len(result.rows) == 10000
    var_check = _check(result, "ou-variance")
    assert var_check.passed
    assert _check(result, "ou-mean").passed
    shift_check = _check(result, "ou-shift-identity")
    assert shift_check.passed
    assert shift_check.measured == 0.0  # lattice-exact, not merely close
    assert _check(result, "ou-sde-residual").passed
    print(f"[criterion 5] PASS - {var_check.detail}; shift identity exact; residual O(dt)")


def test_criterion_06_temperedness():
    result = _run(f"experiment = temperedness\nseed = {SEED}\npaths = 1000\n")
    assert len(result.rows) == 1000
    decay = _check(result, "temperedness-decay")
    assert decay.passed
    assert _check(result, "temperedness-envelope").passed
    print(f"[criterion 6] PASS - {decay.detail}")


def test_criterion_07_picard_contraction():
    result = _run(f"experiment = picard-contraction\nseed = {SEED}\n")
    ratio = _check(result, "picard-ratio")
    assert ratio.passed
    assert _check(result, "picard-converged").passed
    agree = _check(result, "picard-vs-steps")
    assert agree.passed
    assert agree.measured == 0.0  # one step kernel: the two modes agree bit for bit
    print(f"[criterion 7] PASS - {ratio.detail}; {agree.detail}")


def test_criterion_08_cocycle():
    result = _run(f"experiment = cocycle\nseed = {SEED}\n")
    res = _check(result, "cocycle-residual")
    assert res.passed
    halving = _check(result, "cocycle-halving")
    assert halving.passed
    # restarting from an intermediate state is exact in this scheme
    assert res.measured == 0.0
    assert halving.measured == 0.0
    residuals = [row[1] for row in result.rows]
    assert residuals[0] <= 10.0 * 0.01
    assert residuals[1] <= 0.5 * residuals[0] + 1e-12
    print(f"[criterion 8] PASS - {res.detail}; halving holds ({residuals[0]:.1e} -> {residuals[1]:.1e})")


def test_criterion_09_pullback_bound():
    # every pullback run in the absorbing sweep checks the a-priori
    # bound; repeat directly with a two-profile noise field
    result = _run(f"experiment = absorbing\nseed = {SEED}\npaths = 5\nsegments = 2\n")
    assert _check(result, "pullback-sup-bound").passed

    grid = make_grid(20.0, 200)
    params = ModelParams(mu=1.0, epsilon=1.0, alpha=1.0, tau=0.1, profiles=default_profiles(2))
    solver = DelaySolver(grid, params, SolverConfig(0.01))
    path = sample_wiener(2, -50.0, 0.0, 0.01, seed=SEED)
    consts = derived_constants(params, grid, path, -8.1)
    psi = Segment.from_function(grid, params.tau, 0.01, lambda xi, x: np.sin(x) * x * np.exp(-x))
    limit = pullback_bound(params, consts, psi)
    worst = -np.inf
    for t in (2.0, 5.0, 8.0):
        field_sup = sup_norm(pullback_conjugated(solver, psi, path, t).frame(-1))
        worst = max(worst, field_sup - limit)
        assert field_sup <= limit + 1e-4
    print(f"[criterion 9] PASS - sup bound holds on every pullback run (worst excess {worst:.3e})")


def test_criterion_10_absorption():
    result = _run(f"experiment = absorbing\nseed = {SEED}\n")
    assert len(result.rows) == 20 * 5 * 5  # paths x segments x pullback times
    entry = _check(result, "absorbing-entry")
    remain = _check(result, "absorbing-remain")
    assert entry.passed
    assert remain.passed
    print(f"[criterion 10] PASS - {entry.detail}; {remain.detail}")


def test_criterion_11_exponential_fixed_point():
    result = _run(f"experiment = fixed-point\nseed = {SEED}\n")
    rate = _check(result, "fixed-point-rate")
    stat = _check(result, "fixed-point-stationarity")
    assert rate.passed
    assert stat.passed
    assert _check(result, "fixed-point-attraction").passed

    # negative control: mu below the contraction threshold must be
    # refused by the config gate and by the estimator itself
    with pytest.raises(ConditionViolatedError):
        parse_config(f"experiment = fixed-point\nseed = {SEED}\nmu = 1.5\n")
    grid = make_grid(20.0, 200)
    weak = ModelParams(mu=1.5, epsilon=1.0, alpha=1.0, tau=0.5, profiles=default_profiles(1))
    solver = DelaySolver(grid, weak, SolverConfig(0.01))
    path = sample_wiener(1, -45.0, 1.0, 0.01, seed=SEED)
    phi1 = Segment.from_function(grid, 0.5, 0.01, lambda xi, x: x * np.exp(-x))
    phi2 = Segment.from_function(grid, 0.5, 0.01, lambda xi, x: np.sin(x) * np.exp(-x / 2))
    assert not weak.contraction_condition
    with pytest.raises(ConditionViolatedError):
        fixed_point_estimate(solver, phi1, phi2, path, 5.0)
    print(f"[criterion 11] PASS - {rate.detail}; {stat.detail}; negative control refused")


TINY_CONFIGS = (
    "experiment = kernel-bound\nseed = 5\ntrials = 5\n",
    "experiment = semigroup-bounds\nseed = 5\nfields = 2\n",
    "experiment = ou-stats\nseed = 5\npaths = 100\n",
    "experiment = temperedness\nseed = 5\npaths = 10\nhorizon = 50\n",
    "experiment = picard-contraction\nseed = 5\n",
    "experiment = cocycle\nseed = 5\n",
    "experiment = absorbing\nseed = 5\npaths = 2\nsegments = 2\n",
    "experiment = fixed-point\nseed = 5\nhorizon = 4\n",
    "experiment = convergence-study\nseed = 5\nN = 200\ndt_ref = 0.01\nhorizon = 0.4\n",
)


def test_criterion_12_determinism():
    for text in TINY_CONFIGS:
        spec = parse_config(text)
        first = run_experiment(spec)
        second = run_experiment(spec)
        assert first.csv_text() == second.csv_text(), f"rerun differs for {spec.experiment}"
    print(f"[criterion 12] PASS - all {len(TINY_CONFIGS)} experiments byte-identical on rerun")
