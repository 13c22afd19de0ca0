"""Model parameters, nonlinearities, and regime conditions."""

from __future__ import annotations

import numpy as np
import pytest

from rdslab.errors import ConditionViolatedError, ParameterError
from rdslab.model import ModelParams, Nonlinearity
from rdslab.noise import NoiseProfiles


def test_scaled_tanh_respects_bound_and_lipschitz():
    f = Nonlinearity("scaled_tanh", lipschitz=1.5, bound=2.0)
    s = np.linspace(-50.0, 50.0, 2001)
    vals = f.value(s)
    assert np.max(np.abs(vals)) <= 2.0
    assert f.value(0.0) == 0.0
    slopes = np.diff(vals) / np.diff(s)
    assert np.max(np.abs(slopes)) <= 1.5 + 1e-9
    # slope at the origin attains the Lipschitz constant
    h = 1e-6
    assert (f.value(h) - f.value(-h)) / (2 * h) == pytest.approx(1.5, rel=1e-5)


def test_scaled_atan_respects_bound_and_lipschitz():
    f = Nonlinearity("scaled_atan", lipschitz=0.7, bound=1.2)
    s = np.linspace(-200.0, 200.0, 4001)
    vals = f.value(s)
    assert np.max(np.abs(vals)) <= 1.2
    slopes = np.diff(vals) / np.diff(s)
    assert np.max(np.abs(slopes)) <= 0.7 + 1e-9


def test_zero_nonlinearity():
    f = Nonlinearity("zero")
    assert f.lipschitz == 0.0
    assert f.bound == 0.0
    assert np.all(f.value(np.array([-3.0, 0.0, 9.9])) == 0.0)


def test_nonlinearity_validation():
    with pytest.raises(ParameterError, match="kind"):
        Nonlinearity("cubic")
    with pytest.raises(ParameterError, match="lipschitz"):
        Nonlinearity("scaled_tanh", lipschitz=-1.0)
    with pytest.raises(ParameterError, match="bound"):
        Nonlinearity("scaled_tanh", bound=0.0)


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
        nonlinearity=Nonlinearity("scaled_tanh", lipschitz=0.5, bound=1.0),
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
