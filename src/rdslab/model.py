"""Model parameters of the delayed nonlocal evolution and its structural flags.

The equation couples linear decay-diffusion with a delayed, spatially
nonlocal birth term and additive noise:

    du/dt = u_xx - mu u + eps * (dispersal of f(u(t - tau, .))) + noise.

The nonlinearity f(s) = bound * tanh(lipschitz * s / bound) is odd, globally
Lipschitz with constant ``lipschitz`` and globally bounded by ``bound``.

Two parameter regimes recur downstream and are exposed as flags:

``absorbing_condition``
    eps * lipschitz * e^{mu tau} < mu.  Under it the pullback dynamics
    admits a bounded random absorbing ball with an explicit radius.
``contraction_condition``
    tau < 1 and mu > eps * lipschitz / (1 - tau).  Under it the time-one
    solution map contracts initial-data differences at unit-time factor
    e^{mu (tau - 1) + eps * lipschitz} < 1, which forces a unique
    exponentially attracting random stationary solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditionViolatedError, ParameterError, require_real
from .noise import NoiseProfiles

__all__ = ["Nonlinearity", "ModelParams"]


@dataclass(frozen=True)
class Nonlinearity:
    """Birth-rate nonlinearity f(s) = bound * tanh(lipschitz * s / bound).

    It is odd, |f(s)| <= min(bound, lipschitz * |s|), and its exact
    Lipschitz constant is ``lipschitz`` (the supremum slope, at 0).  The
    feedback is switched off by epsilon = 0, not by f.
    """

    lipschitz: float = 1.0
    bound: float = 1.0

    def __post_init__(self) -> None:
        for name in ("lipschitz", "bound"):
            v = require_real(name, getattr(self, name))
            if not (np.isfinite(v) and v > 0):
                raise ParameterError(f"{name} must be positive, got {v!r}")

    def value(self, s):
        return self.bound * np.tanh(self.lipschitz * np.asarray(s, dtype=float) / self.bound)


@dataclass(frozen=True)
class ModelParams:
    """Rates and structure of the evolution problem.

    Attributes
    ----------
    mu : float
        Linear decay rate, > 0.
    epsilon : float
        Strength of the nonlocal birth term, >= 0.
    alpha : float
        Dispersal spread of the birth term, > 0.
    tau : float
        Delay, > 0.
    nonlinearity : Nonlinearity
    profiles : NoiseProfiles
        Spatial noise shapes; one Wiener component per shape.
    """

    mu: float
    epsilon: float
    alpha: float
    tau: float
    nonlinearity: Nonlinearity = field(default_factory=Nonlinearity)
    profiles: NoiseProfiles = field(default_factory=NoiseProfiles)

    def __post_init__(self) -> None:
        for name in ("mu", "alpha", "tau"):
            v = require_real(name, getattr(self, name))
            if not (np.isfinite(v) and v > 0):
                raise ParameterError(f"{name} must be positive and finite, got {v!r}")
        eps = require_real("epsilon", self.epsilon)
        if not (np.isfinite(eps) and eps >= 0):
            raise ParameterError(f"epsilon must be nonnegative and finite, got {eps!r}")

    @property
    def m(self) -> int:
        return self.profiles.m

    @property
    def feedback_lipschitz(self) -> float:
        """Lipschitz constant of the whole delayed term: eps * lipschitz
        (the dispersal operator itself is a sup-norm contraction)."""
        return self.epsilon * self.nonlinearity.lipschitz

    @property
    def delay_growth(self) -> float:
        """e^{mu tau}, the delay's factor in the absorbing condition and radius.

        Raises ConditionViolatedError where it overflows a double: nothing
        that needs it can then be evaluated, even at eps * lipschitz = 0.
        """
        try:
            return math.exp(self.mu * self.tau)
        except OverflowError:
            raise ConditionViolatedError(
                f"e^(mu*tau) overflows at mu*tau = {self.mu * self.tau:.6g}; "
                "the absorbing condition eps*lip*e^(mu*tau) < mu cannot be evaluated"
            ) from None

    @property
    def absorbing_condition(self) -> bool:
        return self.feedback_lipschitz * self.delay_growth < self.mu

    @property
    def contraction_condition(self) -> bool:
        return self.tau < 1.0 and self.mu * (1.0 - self.tau) > self.feedback_lipschitz

    @property
    def unit_contraction_factor(self) -> float:
        """The per-unit-time contraction bound e^{mu (tau - 1) + eps * lipschitz}.

        Below 1 exactly when ``contraction_condition`` holds.
        """
        return math.exp(self.mu * (self.tau - 1.0) + self.feedback_lipschitz)

    def describe_conditions(self) -> str:
        eL = self.feedback_lipschitz
        return (
            f"absorbing: eps*lip*e^(mu*tau) = {eL * self.delay_growth:.6g} "
            f"{'<' if self.absorbing_condition else '>='} mu = {self.mu:.6g}; "
            f"contraction: tau = {self.tau:.6g} {'<' if self.tau < 1 else '>='} 1 and "
            f"mu*(1-tau) = {self.mu * (1 - self.tau):.6g} "
            f"{'>' if self.contraction_condition and self.tau < 1 else '<='} eps*lip = {eL:.6g}"
        )
