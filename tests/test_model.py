"""Model parameters, nonlinearities, and regime conditions."""

from __future__ import annotations

import numpy as np
import pytest

from rdslab.errors import ConditionViolatedError, ParameterError
from rdslab.grid import Field, Grid, Segment, lattice_steps, make_grid
from rdslab.kernel import DispersalKernel
from rdslab.model import ModelParams, Nonlinearity
from rdslab.noise import NoiseProfiles, OUParams, WienerPath, sample_wiener
from rdslab.pullback import DerivedConstants, cocycle_residual, pullback_conjugated
from rdslab.quadrature import operator_matrix
from rdslab.semigroup import DirichletHeatSemigroup
from rdslab.solver import DelaySolver, SolverConfig, Trajectory


def test_scaled_tanh_respects_bound_and_lipschitz():
    f = Nonlinearity(lipschitz=1.5, bound=2.0)
    s = np.linspace(-50.0, 50.0, 2001)
    vals = f.value(s)
    assert np.max(np.abs(vals)) <= 2.0
    assert f.value(0.0) == 0.0
    slopes = np.diff(vals) / np.diff(s)
    assert np.max(np.abs(slopes)) <= 1.5 + 1e-9
    # slope at the origin attains the Lipschitz constant
    h = 1e-6
    assert (f.value(h) - f.value(-h)) / (2 * h) == pytest.approx(1.5, rel=1e-5)


def test_nonlinearity_validation():
    with pytest.raises(ParameterError, match="lipschitz"):
        Nonlinearity(lipschitz=-1.0)
    with pytest.raises(ParameterError, match="bound"):
        Nonlinearity(bound=0.0)


_GRID = make_grid(2.0, 4)


def _path():
    return sample_wiener(1, -1.0, 1.0, 0.05, seed=1)


def _solver():
    params = ModelParams(mu=1.0, epsilon=1.0, alpha=1.0, tau=0.1)
    return DelaySolver(_GRID, params, SolverConfig(0.05))


def _psi():
    return Segment.constant(Field.zero(_GRID), 0.1, 0.05)


# id -> (call, the name its message gives, what the argument must be): one
# malformed argument per case, each caught by the package's one argument rule
_MALFORMED = {
    "mu": (lambda: ModelParams(mu="a", epsilon=1.0, alpha=1.0, tau=0.5), "mu", "a real number"),
    "epsilon": (lambda: ModelParams(mu=1.0, epsilon=None, alpha=1.0, tau=0.5), "epsilon", "a real number"),
    "lipschitz": (lambda: Nonlinearity(lipschitz="a"), "lipschitz", "a real number"),
    "span": (lambda: NoiseProfiles(1, span="x"), "span", "a real number"),
    "alpha": (lambda: DispersalKernel("a", make_grid(20.0, 20)), "alpha", "a real number"),
    "mu-beyond-double": (lambda: ModelParams(mu=10**400, epsilon=1.0, alpha=1.0, tau=0.5), "mu", "finite"),
    "SolverConfig-dt": (lambda: SolverConfig("a"), "dt", "a real number"),
    "SolverConfig-None": (lambda: SolverConfig(None), "dt", "a real number"),
    "OUParams-mu": (lambda: OUParams("a", 40), "mu", "a real number"),
    "semigroup-mu": (lambda: DirichletHeatSemigroup(_GRID).operator(0.5, "a"), "mu", "a real number"),
    "semigroup-operator-t": (lambda: DirichletHeatSemigroup(_GRID).operator("a", 1.0),
                             "propagator time", "a real number"),
    "make_grid-L": (lambda: make_grid("a", 10), "L", "a real number"),
    "Grid-length": (lambda: Grid("a", 2, 0.5, np.array([0.0, 0.5, 1.0])), "length", "a real number"),
    "Grid-nodes": (lambda: Grid(1.0, 2, 0.5, [0.0, 0.5, 1.0]), "nodes", "a float array"),
    "Field-values": (lambda: Field(_GRID, "a"), "field values", "real"),
    "Segment-tau": (lambda: Segment(_GRID, "a", 0.05, _psi().values), "tau", "a real number"),
    "Segment-values": (lambda: Segment(_GRID, 0.1, 0.05, values="a"), "segment values", "real"),
    "lattice_steps-step": (lambda: lattice_steps(1.0, "a", "span"), "span: lattice step", "a real number"),
    "solve-horizon": (lambda: _solver().solve(_psi(), _path(), "a"), "horizon", "real"),
    "shift": (lambda: _path().shift("a"), "time", "real"),
    "pullback-t": (lambda: pullback_conjugated(_solver(), _psi(), _path(), t="a"), "pullback time t", "real"),
    "cocycle-t": (lambda: cocycle_residual(_solver(), _psi(), _path(), "a", 0.1), "t", "real"),
    "WienerPath-values": (lambda: WienerPath("a", 0, 0.05), "base_values", "real"),
    "WienerPath-origin": (lambda: WienerPath(np.zeros((1, 3)), origin=1.5, dt_knot=0.05),
                          "origin", "an integer"),
    "Trajectory-values": (lambda: Trajectory(_GRID, 0.1, 0.05, "a"), "trajectory values", "real"),
    "apply_values": (lambda: DispersalKernel(1.0, _GRID).apply_values("a"), "values", "real"),
    "sample_wiener-dt_path": (lambda: sample_wiener(1, -1.0, 1.0, "a", seed=1), "dt_path", "a real number"),
    "sample_wiener-t_lo": (lambda: sample_wiener(1, "a", 1.0, 0.05, seed=1), "t_lo", "real"),
    "sample_wiener-seed-float": (lambda: sample_wiener(1, -1.0, 1.0, 0.05, seed=1.5),
                                 "seed", "an int or a sequence of ints"),
    "sample_wiener-seed-str": (lambda: sample_wiener(1, -1.0, 1.0, 0.05, seed="ab"),
                               "seed", "an int or a sequence of ints"),
    "sample_wiener-seed-negative": (lambda: sample_wiener(1, -1.0, 1.0, 0.05, seed=-1), "seed", "at least 0"),
    "DerivedConstants-c": (lambda: DerivedConstants("a", 1.0), "c", "a real number"),
    "operator_matrix-a-str": (lambda: operator_matrix(_GRID.nodes, _GRID.nodes, "a"),
                              "gaussian width parameter a", "a real number"),
    "operator_matrix-a-inf": (lambda: operator_matrix(_GRID.nodes, _GRID.nodes, np.inf),
                              "gaussian width parameter a", "finite"),
}


@pytest.mark.parametrize("build, field, what", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_non_numeric_arguments_are_parameter_errors_naming_the_field(build, field, what):
    with pytest.raises(ParameterError, match=f"{field} must be {what}"):
        build()


def test_default_profiles_family():
    profiles = NoiseProfiles(3)
    assert profiles.m == 3
    with pytest.raises(ParameterError, match="m"):
        NoiseProfiles(4)
    with pytest.raises(ParameterError, match="m"):
        NoiseProfiles(0)
    with pytest.raises(ParameterError, match="m"):
        NoiseProfiles(2.0)


def test_model_params_validation_names_fields():
    with pytest.raises(ParameterError, match="mu"):
        ModelParams(mu=-1.0, epsilon=1.0, alpha=1.0, tau=0.5)
    with pytest.raises(ParameterError, match="alpha"):
        ModelParams(mu=1.0, epsilon=1.0, alpha=0.0, tau=0.5)
    with pytest.raises(ParameterError, match="tau"):
        ModelParams(mu=1.0, epsilon=1.0, alpha=1.0, tau=-0.5)
    with pytest.raises(ParameterError, match="epsilon"):
        ModelParams(mu=1.0, epsilon=-0.2, alpha=1.0, tau=0.5)


def test_feedback_lipschitz_product():
    params = ModelParams(
        mu=1.0, epsilon=2.0, alpha=1.0, tau=0.5,
        nonlinearity=Nonlinearity(lipschitz=0.5, bound=1.0),
    )
    assert params.feedback_lipschitz == pytest.approx(1.0)


def test_absorbing_condition_flag():
    # eps * lip * e^{mu tau} < mu
    good = ModelParams(mu=2.0, epsilon=1.0, alpha=1.0, tau=0.25)
    assert good.absorbing_condition  # e^{0.5} = 1.6487 < 2
    bad = ModelParams(mu=1.0, epsilon=1.0, alpha=1.0, tau=0.25)
    assert not bad.absorbing_condition  # e^{0.25} = 1.284 > 1


def test_contraction_and_fixedpoint_conditions():
    # mu (1 - tau) > eps * lip and tau < 1
    p = ModelParams(mu=3.0, epsilon=1.0, alpha=1.0, tau=0.5)
    assert p.contraction_condition  # 3 * 0.5 = 1.5 > 1
    # but e^{mu tau} = e^{1.5} = 4.48 > mu = 3: absorbing fails
    assert not p.absorbing_condition

    q = ModelParams(mu=1.5, epsilon=1.0, alpha=1.0, tau=0.5)
    assert not q.contraction_condition  # 1.5 * 0.5 = 0.75 < 1

    r = ModelParams(mu=1.0, epsilon=1.0, alpha=1.0, tau=1.5)
    assert not r.contraction_condition  # tau >= 1

    s = ModelParams(mu=8.0, epsilon=1.0, alpha=1.0, tau=0.125)
    assert s.absorbing_condition  # e = 2.718 < 8
    assert s.contraction_condition  # 8 * 0.875 = 7 > 1


def test_unit_contraction_factor():
    p = ModelParams(mu=3.0, epsilon=1.0, alpha=1.0, tau=0.5)
    assert p.unit_contraction_factor == pytest.approx(np.exp(3.0 * (-0.5) + 1.0))
    assert p.unit_contraction_factor == pytest.approx(0.6065306597126334)


def test_describe_conditions_mentions_gates():
    p = ModelParams(mu=2.0, epsilon=1.0, alpha=1.0, tau=0.25)
    text = p.describe_conditions()
    assert "absorbing" in text
    assert "contraction" in text


def test_delay_growth_overflow_is_a_condition_error():
    # e^(mu*tau) overflows a double past mu*tau ~ 709.78, even where
    # eps*lip = 0 would make the product zero
    for eps in (0.0, 1.0):
        p = ModelParams(mu=800.0, epsilon=eps, alpha=1.0, tau=1.0)
        with pytest.raises(ConditionViolatedError, match="overflows"):
            p.absorbing_condition
        with pytest.raises(ConditionViolatedError, match="overflows"):
            p.describe_conditions()
    # just below the overflow the verdicts stand, with no 0 * inf
    assert ModelParams(mu=709.0, epsilon=0.0, alpha=1.0, tau=1.0).absorbing_condition
    assert not ModelParams(mu=709.0, epsilon=1.0, alpha=1.0, tau=1.0).absorbing_condition
