"""Killed Dirichlet heat propagator: closed form, law, bounds."""

from __future__ import annotations

import numpy as np
import pytest

import rdslab.experiments as experiments
from rdslab.config import parse_config
from rdslab.errors import ParameterError
from rdslab.grid import Field, make_grid, sup_norm
from rdslab.quadrature import flush_subnormal, operator_matrix
from rdslab.semigroup import DirichletHeatSemigroup


def gaussian_mode(a: float):
    """x exp(-x^2 / (4a)) flows in closed form under the Dirichlet heat
    semigroup: S(t) maps it to e^{-mu t} (a/(a+t))^{3/2} x e^{-x^2/(4(a+t))}."""

    def initial(x):
        return x * np.exp(-(x ** 2) / (4.0 * a))

    def at_time(x, t, mu):
        factor = np.exp(-mu * t) * (a / (a + t)) ** 1.5
        return factor * x * np.exp(-(x ** 2) / (4.0 * (a + t)))

    return initial, at_time


def test_closed_form_oracle_relative_error():
    grid = make_grid(20.0, 200)
    mu = 1.0
    flow = DirichletHeatSemigroup(grid)
    initial, at_time = gaussian_mode(1.0)
    f = Field(grid, initial(grid.nodes))
    out = flow.operator(0.5, mu) @ f.values
    exact = at_time(grid.nodes, 0.5, mu)
    rel = np.max(np.abs(out - exact)) / np.max(np.abs(exact))
    assert rel <= 1e-4


def test_closed_form_other_rates_and_times():
    grid = make_grid(20.0, 200)
    initial, at_time = gaussian_mode(0.5)
    f = Field(grid, initial(grid.nodes))
    flow = DirichletHeatSemigroup(grid)
    for mu in (0.5, 2.0):
        for t in (0.1, 1.0):
            out = flow.operator(t, mu) @ f.values
            exact = at_time(grid.nodes, t, mu)
            rel = np.max(np.abs(out - exact)) / np.max(np.abs(exact))
            assert rel <= 1e-4


def test_semigroup_law():
    grid = make_grid(20.0, 200)
    flow = DirichletHeatSemigroup(grid)
    for a in (0.5, 1.0, 2.0):
        initial, _ = gaussian_mode(a)
        f = Field(grid, initial(grid.nodes))
        for t, s in ((0.1, 0.4), (0.5, 0.5), (1.0, 4.0)):
            combined = flow.operator(t + s, 1.0) @ f.values
            chained = flow.operator(t, 1.0) @ (flow.operator(s, 1.0) @ f.values)
            assert sup_norm(Field(grid, combined - chained)) <= 1e-6


def test_identity_at_zero_rejected_or_exact():
    grid = make_grid(20.0, 200)
    flow = DirichletHeatSemigroup(grid)
    with pytest.raises(ParameterError, match="t"):
        flow.operator(0.0, 1.0)
    with pytest.raises(ParameterError, match="t"):
        flow.operator(-1.0, 1.0)


def test_operator_norm_within_decay_factor():
    grid = make_grid(20.0, 200)
    flow = DirichletHeatSemigroup(grid)
    for mu in (0.5, 1.0, 2.0):
        for t in (0.01, 0.1, 1.0):
            mat = flow.operator(t, mu)
            norm = np.max(np.sum(np.abs(mat), axis=1))
            # spline interpolation can overshoot by strictly bounded dust
            assert norm <= np.exp(-mu * t) + 1e-5


def test_bounds_report_structure_and_verdict():
    grid = make_grid(20.0, 200)
    f = Field(grid, grid.nodes * np.exp(-grid.nodes))
    ((pairs,),) = DirichletHeatSemigroup(grid).check_bounds([f], 0.5, [1.0])
    assert list(pairs) == ["sup", "dx1", "dx2", "dt1"]
    slack = max(1e-6, grid.dx ** 2)
    for measured, bound in pairs.values():
        assert 0.0 < measured <= bound + slack
    one_cell = make_grid(20.0, 1)  # two nodes hold no second difference
    with pytest.raises(ParameterError, match="bounds check cells N must be at least 2, got 1"):
        DirichletHeatSemigroup(one_cell).check_bounds([Field.zero(one_cell)], 0.5, [1.0])


def test_bounds_hold_across_times_and_rates():
    grid = make_grid(20.0, 200)
    rng = np.random.default_rng(7)
    values = rng.uniform(-1.0, 1.0, grid.nodes.size)
    values[0] = 0.0
    f = Field(grid, values)
    slack = max(1e-6, grid.dx ** 2)
    flow, rates = DirichletHeatSemigroup(grid), (0.5, 2.0)
    for t in (1e-3, 0.5, 5.0):
        (by_rate,) = flow.check_bounds([f], t, rates)
        for mu, pairs in zip(rates, by_rate):
            for name, (measured, bound) in pairs.items():
                assert measured <= bound + slack, f"{name} bound failed at mu={mu}, t={t}"


@pytest.mark.parametrize("t", [1e-3, 0.5])
def test_check_bounds_measures_every_rate_on_its_killed_propagator(t):
    # each rate's propagator is a scaled copy of the one H(s) a time holds;
    # the bits are those of flush(e^{-mu s} H(s)) assembled rate by rate
    grid = make_grid(20.0, 60)
    rng = np.random.default_rng(11)
    fields = [Field(grid, np.append(0.0, rng.uniform(-1.0, 1.0, grid.n_cells))) for _ in range(3)]
    rates = (0.5, 1.0, 2.0)
    got = DirichletHeatSemigroup(grid).check_bounds(fields, t, rates)
    h, dx = t * 1e-3, grid.dx
    for r, mu in enumerate(rates):
        killed = [flush_subnormal(operator_matrix(grid.nodes, grid.nodes, s, order="linear")
                                  * np.exp(-mu * s)) for s in (t, t + h, t - h)]
        decay = np.exp(-mu * t)
        for i, f in enumerate(fields):
            v, v_plus, v_minus = (w @ f.values for w in killed)
            d1 = (v[2:] - v[:-2]) / (2.0 * dx)
            d2 = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (dx * dx)
            dtv = (v_plus - v_minus) / (2.0 * h)
            norm_f = sup_norm(f)
            assert got[i][r] == {
                "sup": (float(np.max(np.abs(v))), decay * norm_f),
                "dx1": (float(np.max(np.abs(d1))), decay * norm_f / np.sqrt(np.pi * t)),
                "dx2": (float(np.max(np.abs(d2))), decay * norm_f / t),
                "dt1": (float(np.max(np.abs(dtv))), (1.0 + mu * t) * decay * norm_f / t),
            }


def test_odd_extension_agrees_with_image_pair():
    grid = make_grid(20.0, 200)
    flow = DirichletHeatSemigroup(grid)
    f = Field(grid, grid.nodes * np.exp(-(grid.nodes ** 2) / 2.0))
    direct = flow.operator(0.5, 1.0) @ f.values
    mirrored = flow.apply_via_odd_extension(0.5, 1.0, f)
    assert sup_norm(Field(grid, direct - mirrored.values)) <= 1e-10


def test_semigroup_bounds_draws_each_field_once(monkeypatch):
    drawn = []
    draw = experiments._smooth_random_field
    monkeypatch.setattr(experiments, "_smooth_random_field",
                        lambda grid, rng: drawn.append(1) or draw(grid, rng))
    config = "experiment = semigroup-bounds\nseed = 5\nfields = 3\nN = 50\n"
    result = experiments.run_experiment(parse_config(config))
    assert len(drawn) == 3
    # rows by field, then (mu, t) in sweep order within each field
    cases = [(mu, t) for mu in experiments.SEMIGROUP_RATES for t in experiments.SEMIGROUP_TIMES]
    assert [row[:3] for row in result.rows] == [(i, *case) for i in range(3) for case in cases]
