"""Two-sided Wiener paths and the stationary mean-reverting noise."""

from __future__ import annotations

import math

import numpy as np
import pytest

from rdslab.config import parse_config
from rdslab.errors import ParameterError, WindowExhaustedError
from rdslab.experiments import run_experiment
from rdslab.grid import make_grid
from rdslab.noise import (
    NoiseProfiles,
    OUParams,
    WienerPath,
    _window_kernel,
    default_s_cut,
    empirical_decay_bound,
    noise_rows,
    ou_series,
    sample_wiener,
    sde_residual,
    temperedness_diagnostic,
    zero_wiener,
)


def test_path_basics():
    path = sample_wiener(2, -10.0, 5.0, 0.1, seed=1)
    assert path.m == 2
    assert path.t_lo == pytest.approx(-10.0)
    assert path.t_hi == pytest.approx(5.0)
    assert np.all(path.value(0.0) == 0.0)  # pinned at the origin
    with pytest.raises(WindowExhaustedError):
        path.value(6.0)
    with pytest.raises(ParameterError, match="lattice|knot"):
        path.value(0.05)


def test_index_of_accepts_arrays():
    path = sample_wiener(1, -2.0, 1.0, 0.1, seed=1)
    idx = path.index_of(0.3)
    assert isinstance(idx, int) and idx == 23
    times = np.array([-2.0, -0.1, 0.0, 0.3, 1.0])
    per_time = [path.origin + int(round(t / path.dt_knot)) for t in times]
    assert np.array_equal(path.index_of(times), per_time)
    assert np.array_equal(path.value(times)[:, 3], path.value(0.3))
    # errors name the first offending time
    with pytest.raises(ParameterError, match="time 0.05 "):
        path.index_of(np.array([0.0, 0.05, 0.07]))
    with pytest.raises(WindowExhaustedError, match="time 1.5 "):
        path.index_of(np.array([0.0, 1.5, -3.0]))


def test_path_increments_have_brownian_scale():
    path = sample_wiener(1, 0.0, 2000.0, 1.0, seed=2)
    values = path.knots()[0]
    inc = np.diff(values)
    assert abs(np.mean(inc)) < 0.1
    assert abs(np.var(inc) - 1.0) < 0.1


def test_shift_composes_bit_exactly():
    path = sample_wiener(1, -10.0, 10.0, 0.5, seed=3)
    a = path.shift(2.0).shift(-1.5)
    b = path.shift(0.5)
    for t in (-3.0, 0.0, 4.5):
        assert np.array_equal(a.value(t), b.value(t))
    # shifted path is pinned so that omega(0) = 0 semantics hold:
    # value(t) of the shift is the increment of the base path
    s, t = 2.0, 3.0
    assert np.array_equal(path.shift(s).value(t), path.value(s + t) - path.value(s))


def test_zero_wiener_is_zero():
    path = zero_wiener(2, -5.0, 5.0, 0.5)
    assert np.all(path.base_values == 0.0)
    p = OUParams(1.0, default_s_cut(1.0, 0.5))
    # needs history -s_cut; extend window accordingly
    path = zero_wiener(2, -45.0, 5.0, 0.5)
    assert np.all(ou_series(path, p, [-1.0, 0.0, 5.0]) == 0.0)


def test_zero_wiener_checks_its_window_like_sample_wiener():
    for bad in ((1, -0.55, 1.0, 0.1), (1, 1.0, 2.0, 0.1), (1, 0.0, 0.0, 0.1)):
        with pytest.raises(ParameterError):
            sample_wiener(*bad, seed=0)
        with pytest.raises(ParameterError):
            zero_wiener(*bad)


def test_ou_params_validation():
    with pytest.raises(ParameterError, match="mu"):
        OUParams(-1.0, 40.0)
    with pytest.raises(ParameterError, match="truncation"):
        OUParams(1.0, 10.0)  # mu * s_cut < 40 truncates too much history
    # 40 / (mu dt) is 4 + 1.2e-10 steps, which the lattice rule takes as 4: mu s_cut = 40 - 1.2e-9
    assert OUParams(100.0, default_s_cut(100.0, 0.099999999997)).s_cut == 4 * 0.099999999997


def test_default_s_cut_is_lattice_aligned():
    s = default_s_cut(1.0, 0.02)
    assert s >= 40.0 - 1e-12
    assert (s / 0.02) == pytest.approx(round(s / 0.02))
    s3 = default_s_cut(3.0, 0.01)
    assert s3 * 3.0 >= 40.0 - 1e-9


def test_ou_shift_identity_bit_exact():
    dt = 0.05
    p = OUParams(1.0, default_s_cut(1.0, dt))
    path = sample_wiener(3, -p.s_cut - 6.0, 6.0, dt, seed=4)
    times = (-2.0, 0.55, 3.0, 6.0)
    series = ou_series(path, p, times)
    for k, t in enumerate(times):
        right = ou_series(path.shift(t), p, 0.0)[:, 0]
        assert np.array_equal(series[:, k], right)


def _trapezoid_oracle(path, p, t):
    """-mu * trapezoid sum of e^{mu s} (w(t + s) - w(t)) over s in [-s_cut, 0]."""
    dt = path.dt_knot
    s = dt * np.arange(-int(np.ceil(p.s_cut / dt - 1e-9)), 1)
    seg = path.value(t + s) - path.value(t)[:, None]
    return -p.mu * np.trapezoid(np.exp(p.mu * s) * seg, dx=dt, axis=1)


def test_ou_series_matches_pointwise():
    dt = 0.05
    p = OUParams(1.0, default_s_cut(1.0, dt))
    path = sample_wiener(2, -p.s_cut - 3.0, 3.0, dt, seed=5)
    times = np.arange(-2.0, 3.0 + dt / 2, dt)
    series = ou_series(path, p, times)
    for k in (0, 17, 50, len(times) - 1):
        assert np.allclose(series[:, k], _trapezoid_oracle(path, p, times[k]), atol=1e-13)
    assert np.array_equal(ou_series(path, p, times[17]), series[:, 17:18])
    with pytest.raises(WindowExhaustedError):
        ou_series(path, p, -3.05)


def test_ou_stationary_variance_small_sample():
    dt = 0.05
    p = OUParams(2.0, default_s_cut(2.0, dt))
    path = sample_wiener(400, -p.s_cut, 0.0, dt, seed=6)
    z0 = ou_series(path, p, 0.0)[:, 0]
    target = 1.0 / (2.0 * p.mu)
    assert np.var(z0) == pytest.approx(target, rel=0.25)


def test_sde_residual_much_smaller_than_dt():
    dt = 0.02
    p = OUParams(1.0, default_s_cut(1.0, dt))
    path = sample_wiener(1, -p.s_cut - 5.0, 0.0, dt, seed=7)
    assert sde_residual(path, p, -4.0, 0.0) <= dt


def test_window_ends_off_the_lattice_are_rejected_not_rounded():
    dt = 0.1
    p = OUParams(1.0, default_s_cut(1.0, dt))
    path = sample_wiener(1, -p.s_cut - 2.0, 0.0, dt, seed=9)
    assert empirical_decay_bound(path, p, -0.6) > 0.0
    assert sde_residual(path, p, -0.6, 0.0) >= 0.0
    with pytest.raises(ParameterError, match="t_lo -0.55 "):
        empirical_decay_bound(path, p, -0.55)
    with pytest.raises(ParameterError, match="t_hi -0.05 "):
        empirical_decay_bound(path, p, -0.6, -0.05)
    with pytest.raises(ParameterError, match="t0 -0.55 "):
        sde_residual(path, p, -0.55, 0.0)
    with pytest.raises(ParameterError, match="t1 -0.15 "):
        sde_residual(path, p, -0.6, -0.15)
    with pytest.raises(ParameterError, match="horizon 1.05 "):
        temperedness_diagnostic(path, p, 0.1, 1.05)


def test_temperedness_diagnostic_decays():
    dt = 0.1
    p = OUParams(1.0, default_s_cut(1.0, dt))
    horizon = 100.0
    path = sample_wiener(2, -horizon - p.s_cut, 0.0, dt, seed=8)
    times, diag, r_hat = temperedness_diagnostic(path, p, 0.1, horizon)
    assert times[0] == pytest.approx(0.0)
    assert times[-1] == pytest.approx(horizon)
    assert diag[-1] < 1e-3
    # the same growth constant, bit for bit, as the pullback route computes
    assert r_hat == empirical_decay_bound(path, p, -horizon, 0.0)
    # by construction the envelope dominates the squared amplitude
    lattice = np.arange(-horizon, 0.0 + dt / 2, dt)
    series = ou_series(path, p, lattice)
    amp = np.sum(series ** 2, axis=0)
    envelope = r_hat * np.exp(p.mu * np.abs(lattice) / 2.0)
    assert np.all(amp <= envelope + 1e-12)


def test_profiles_values_and_curvature():
    grid = make_grid(20.0, 200)
    x = grid.nodes
    profiles = NoiseProfiles(3)
    g = profiles.values(x)
    assert g.shape == (3, x.size)
    assert np.all(g[:, 0] == 0.0)
    # finite-difference check of the closed-form second derivatives
    h = 1e-5
    interior = x[5:-5]
    fd = (profiles.values(interior + h) - 2.0 * profiles.values(interior)
          + profiles.values(interior - h)) / h**2
    exact = profiles.second_derivatives(interior)
    assert np.max(np.abs(fd - exact)) < 1e-4


def test_profiles_are_the_closed_forms_bit_for_bit():
    # the solver's noise rows carry these bits into every stepped CSV,
    # so each formula keeps its operation order
    x = make_grid(20.0, 200).nodes
    span = 13.0
    k = np.pi / span
    e, s, c = np.exp(-x), np.sin(k * x), np.cos(k * x)
    values = [x * x * np.exp(-x), x * np.exp(-x * x), np.sin(k * x) * x * np.exp(-x)]
    second = [
        (x * x - 4.0 * x + 2.0) * np.exp(-x),
        (4.0 * x ** 3 - 6.0 * x) * np.exp(-x * x),
        -k * k * s * x * e + 2.0 * k * c * (1.0 - x) * e + s * (x - 2.0) * e,
    ]
    for m in (1, 2, 3):
        profiles = NoiseProfiles(m, span)
        assert np.array_equal(profiles.values(x), np.vstack(values[:m]))
        assert np.array_equal(profiles.second_derivatives(x), np.vstack(second[:m]))


def test_profile_spec_validation():
    for span in (0.0, -20.0, np.inf, np.nan):
        with pytest.raises(ParameterError, match="span"):
            NoiseProfiles(1, span)


def test_noise_profiles_aggregates():
    grid = make_grid(20.0, 200)
    profiles = NoiseProfiles(2)
    assert profiles.m == 2
    x = grid.nodes
    rss = profiles.sup_rss(x)
    direct = np.sqrt(profiles.values(x)[0] ** 2 + profiles.values(x)[1] ** 2)
    assert rss == pytest.approx(np.max(direct), rel=1e-12)


def test_noise_field_combination():
    grid = make_grid(20.0, 200)
    profiles = NoiseProfiles(2)
    g, g2 = profiles.values(grid.nodes), profiles.second_derivatives(grid.nodes)
    z = np.array([[-0.3, 0.0], [-1.2, 2.0]])  # two components at two times
    rows = noise_rows(g, z)
    # same bits as the ordered sum started at zero, signs of zeros included
    ref = np.zeros((2, grid.nodes.size))
    for j in range(2):
        ref += z[j][:, None] * g[j]
    assert np.array_equal(rows, ref) and np.array_equal(np.signbit(rows), np.signbit(ref))
    assert np.allclose(rows[0], -0.3 * g[0] - 1.2 * g[1], atol=1e-14)
    assert np.allclose(rows[1], 2.0 * g[1], atol=1e-14)
    assert np.all(rows[:, 0] == 0.0)
    assert np.allclose(noise_rows(g2, z)[0], -0.3 * g2[0] - 1.2 * g2[1], atol=1e-14)
    # a row depends only on its own column of z, bit for bit
    assert np.array_equal(noise_rows(g, z[:, 1:])[0], rows[1])
    with pytest.raises(ParameterError, match="shape"):
        noise_rows(g, z[:1])


def test_sample_requires_valid_window():
    with pytest.raises(ParameterError, match="t_lo|window"):
        sample_wiener(1, 5.0, -5.0, 0.1, seed=0)
    with pytest.raises(ParameterError, match="m"):
        sample_wiener(0, -5.0, 5.0, 0.1, seed=0)


def _lone_draw(m, n_neg, n_pos, dt, seed):
    """The single-path draw, written out: forward block first, then backward."""
    rng = np.random.default_rng(seed)
    fwd = rng.standard_normal((m, n_pos)) * math.sqrt(dt)
    bwd = rng.standard_normal((m, n_neg)) * math.sqrt(dt)
    values = np.zeros((m, n_neg + n_pos + 1))
    values[:, n_neg + 1 :] = np.cumsum(fwd, axis=1)
    values[:, :n_neg] = np.cumsum(bwd, axis=1)[:, ::-1]
    return values


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("window", [(-0.7, 0.0), (0.0, 0.5), (-0.7, 0.5)])
def test_stacked_draw_equals_lone_draws(m, window):
    dt = 0.1
    n_neg, n_pos = round(-window[0] / dt), round(window[1] / dt)
    seeds = [2**63, 10**30, 3, 3, 0]
    stack = sample_wiener(m, *window, dt, seeds)
    assert stack.base_values.shape == (len(seeds) * m, n_neg + n_pos + 1)
    assert stack.origin == n_neg
    for i, seed in enumerate(seeds):
        lone = _lone_draw(m, n_neg, n_pos, dt, seed)
        assert np.array_equal(sample_wiener(m, *window, dt, seed).base_values, lone)
        assert np.array_equal(stack.base_values[i * m : i * m + m], lone)
    with pytest.raises(ParameterError, match="seed"):
        sample_wiener(m, *window, dt, [])


def test_ou_stats_rows_do_not_depend_on_the_stacks():
    seed, n_paths, dt, mu = 11, 37, 0.02, 1.0  # 37 = two full stacks and a partial one
    result = run_experiment(parse_config(
        f"experiment = ou-stats\nseed = {seed}\npaths = {n_paths}\nmu = {mu}\ndt_path = {dt}\n"
    ))
    p = OUParams(mu, default_s_cut(mu, dt))
    n_neg = round(p.s_cut / dt)
    lone_paths = [WienerPath(_lone_draw(1, n_neg, 0, dt, seed + i), n_neg, dt) for i in range(n_paths)]
    oracle = [(i, float(ou_series(path, p, 0.0)[0, 0])) for i, path in enumerate(lone_paths)]
    assert list(result.rows) == oracle


def test_ou_series_at_any_time_subset_indexes_one_series():
    dt = 0.05
    p = OUParams(1.0, default_s_cut(1.0, dt))
    path = sample_wiener(2, -p.s_cut - 3.0, 2.0, dt, seed=12)
    first = -3.0  # the earliest time with a full history window
    grid = first + dt * np.arange(round((2.0 - first) / dt) + 1)
    full = ou_series(path, p, grid)
    for picks in ([0], [len(grid) - 1], [len(grid) - 1, 0, 1], [3, 1, len(grid) - 2, 2]):
        times = grid[picks]
        assert np.array_equal(ou_series(path, p, times), full[:, picks])
    assert ou_series(path, p, []).shape == (2, 0)
    with pytest.raises(WindowExhaustedError):
        ou_series(path, p, [0.0, first - dt])


def _span_series(path, p, times):
    """The evaluator before a record kept its series: one correlation of
    only the span of the record that the times need."""
    n_cut, ker, ker_mass = _window_kernel(p, path.dt_knot)
    idx = np.atleast_1d(path.index_of(times))
    lo = idx.min() - n_cut
    span = path.base_values[:, lo : idx.max() + 1]
    corr = np.array([np.correlate(row, ker, mode="valid") for row in span])
    return -p.mu * (corr[:, idx - n_cut - lo] - path.base_values[:, idx] * ker_mass)


def _subsets_the_ou_tests_read():
    """(path, p, times) of every time subset the OU tests above read."""
    dt = 0.05
    p = OUParams(1.0, default_s_cut(1.0, dt))
    shifted = sample_wiener(3, -p.s_cut - 6.0, 6.0, dt, seed=4)
    pointwise = sample_wiener(2, -p.s_cut - 3.0, 3.0, dt, seed=5)
    indexed = sample_wiener(2, -p.s_cut - 3.0, 2.0, dt, seed=12)
    cases = [(shifted, p, (-2.0, 0.55, 3.0, 6.0))]
    cases += [(shifted, p, t) for t in (-2.0, 0.55, 3.0, 6.0)]
    times = np.arange(-2.0, 3.0 + dt / 2, dt)
    cases += [(pointwise, p, times), (pointwise, p, times[17])]
    grid = -3.0 + dt * np.arange(101)
    picks = ([0], [100], [100, 0, 1], [3, 1, 99, 2])
    cases += [(indexed, p, grid)] + [(indexed, p, grid[k]) for k in picks]
    return cases


def test_a_fresh_record_gives_the_bits_of_a_span_correlation():
    # each value is the same ddot of the same window however much of the
    # record is correlated, so a record's series moves no bit
    for path, p, times in _subsets_the_ou_tests_read():
        fresh = WienerPath(path.base_values.copy(), path.origin, path.dt_knot)
        got = ou_series(fresh, p, times)
        assert np.array_equal(got, _span_series(path, p, times))
        assert np.array_equal(got, ou_series(path, p, times))


def test_one_correlation_pass_per_record_and_params(monkeypatch):
    rows = []
    correlate = np.correlate
    monkeypatch.setattr(np, "correlate", lambda *a, **k: rows.append(1) or correlate(*a, **k))
    dt = 0.05
    p, q = OUParams(1.0, default_s_cut(1.0, dt)), OUParams(2.0, default_s_cut(2.0, dt))
    path = sample_wiener(3, -p.s_cut - 3.0, 2.0, dt, seed=13)

    def passes() -> float:
        return len(rows) / path.m

    ou_series(path, p, [0.0, -1.0])
    assert passes() == 1
    ou_series(path, p, -3.0 + dt * np.arange(101))
    later = path.shift(1.5).shift(-0.5)
    assert passes() == 1  # a shift adds no pass
    ou_series(later, p, [0.0, -4.0])
    ou_series(path.shift(-3.0), p, 0.0)
    assert passes() == 1
    ou_series(later, q, 0.0)  # a second OUParams has its own series
    assert passes() == 2
    ou_series(path, q, [-1.0, 0.5])
    ou_series(path, p, 2.0)
    assert passes() == 2
    ou_series(WienerPath(path.base_values.copy(), path.origin, dt), p, 0.0)
    assert passes() == 3  # a new record, though of the same values, correlates again


def test_a_time_short_of_a_full_window_is_refused_with_or_without_the_series():
    dt = 0.05
    p = OUParams(1.0, default_s_cut(1.0, dt))
    path = sample_wiener(1, -p.s_cut - 1.0, 1.0, dt, seed=14)
    first = -1.0  # n_cut knots after the record's start
    for _ in range(2):  # before the record has its series, then after
        for t in (first - dt, path.t_lo, [0.0, first - dt]):
            with pytest.raises(WindowExhaustedError):
                ou_series(path, p, t)
        ou_series(path, p, first)
    shifted = path.shift(first)
    with pytest.raises(WindowExhaustedError):
        ou_series(shifted, p, -dt)
    assert np.array_equal(ou_series(shifted, p, 0.0), ou_series(path, p, first))
