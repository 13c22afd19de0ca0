"""Killed Dirichlet heat propagator: closed form, law, bounds."""

from __future__ import annotations

import numpy as np
import pytest

from rdslab.errors import ParameterError
from rdslab.grid import Field, make_grid, sup_norm
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
    flow = DirichletHeatSemigroup(grid, mu)
    initial, at_time = gaussian_mode(1.0)
    f = Field.from_function(grid, initial)
    out = flow.operator(0.5) @ f.values
    exact = at_time(grid.nodes, 0.5, mu)
    rel = np.max(np.abs(out - exact)) / np.max(np.abs(exact))
    assert rel <= 1e-4


def test_closed_form_other_rates_and_times():
    grid = make_grid(20.0, 200)
    initial, at_time = gaussian_mode(0.5)
    f = Field.from_function(grid, initial)
    for mu in (0.5, 2.0):
        flow = DirichletHeatSemigroup(grid, mu)
        for t in (0.1, 1.0):
            out = flow.operator(t) @ f.values
            exact = at_time(grid.nodes, t, mu)
            rel = np.max(np.abs(out - exact)) / np.max(np.abs(exact))
            assert rel <= 1e-4


def test_semigroup_law():
    grid = make_grid(20.0, 200)
    flow = DirichletHeatSemigroup(grid, 1.0)
    for a in (0.5, 1.0, 2.0):
        initial, _ = gaussian_mode(a)
        f = Field.from_function(grid, initial)
        for t, s in ((0.1, 0.4), (0.5, 0.5), (1.0, 4.0)):
            combined = flow.operator(t + s) @ f.values
            chained = flow.operator(t) @ (flow.operator(s) @ f.values)
            assert sup_norm(Field(grid, combined - chained)) <= 1e-6


def test_identity_at_zero_rejected_or_exact():
    grid = make_grid(20.0, 200)
    flow = DirichletHeatSemigroup(grid, 1.0)
    with pytest.raises(ParameterError, match="t"):
        flow.operator(0.0)
    with pytest.raises(ParameterError, match="t"):
        flow.operator(-1.0)


def test_operator_norm_within_decay_factor():
    grid = make_grid(20.0, 200)
    for mu in (0.5, 1.0, 2.0):
        flow = DirichletHeatSemigroup(grid, mu)
        for t in (0.01, 0.1, 1.0):
            mat = flow.operator(t)
            norm = np.max(np.sum(np.abs(mat), axis=1))
            # spline interpolation can overshoot by strictly bounded dust
            assert norm <= np.exp(-mu * t) + 1e-5


def test_bounds_report_structure_and_verdict():
    grid = make_grid(20.0, 200)
    f = Field.from_function(grid, lambda x: x * np.exp(-x))
    pairs = DirichletHeatSemigroup(grid, 1.0).check_bounds(f, 0.5)
    assert list(pairs) == ["sup", "dx1", "dx2", "dt1"]
    slack = max(1e-6, grid.dx ** 2)
    for measured, bound in pairs.values():
        assert 0.0 < measured <= bound + slack


def test_bounds_hold_across_times_and_rates():
    grid = make_grid(20.0, 200)
    rng = np.random.default_rng(7)
    values = rng.uniform(-1.0, 1.0, grid.nodes.size)
    values[0] = 0.0
    f = Field(grid, values)
    slack = max(1e-6, grid.dx ** 2)
    for mu in (0.5, 2.0):
        flow = DirichletHeatSemigroup(grid, mu)
        for t in (1e-3, 0.5, 5.0):
            for name, (measured, bound) in flow.check_bounds(f, t).items():
                assert measured <= bound + slack, f"{name} bound failed at mu={mu}, t={t}"


def test_odd_extension_agrees_with_image_pair():
    grid = make_grid(20.0, 200)
    flow = DirichletHeatSemigroup(grid, 1.0)
    f = Field.from_function(grid, lambda x: x * np.exp(-(x ** 2) / 2.0))
    direct = flow.operator(0.5) @ f.values
    mirrored = flow.apply_via_odd_extension(0.5, f)
    assert sup_norm(Field(grid, direct - mirrored.values)) <= 1e-10
