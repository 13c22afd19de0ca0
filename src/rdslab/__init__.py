"""Numerical laboratory for a stochastic nonlocal delayed
reaction-diffusion equation on the half-line.

The package simulates the mild solution of

    du/dt = Laplacian(u) - mu * u
            + eps * Integral(kernel(alpha, x, y) * f(u(t - tau, y)) dy)
            + sum_j g_j(x) * dW_j/dt,        u(t, 0) = 0,  x > 0,

truncated to [0, L], and measures the quantitative structure the model
carries: the dispersal operator's norm bound, the killed heat flow's
decay and smoothing inequalities, stationary noise statistics and
temperedness, fixed-point contraction of the mild formulation, the
cocycle property, pullback absorption, and the exponentially attracting
random fixed point under strong damping.

Layout
------
grid        spatial lattice, fields, history segments, norms
quadrature  product-integration matrices for Gaussian kernels
kernel      nonlocal dispersal operator (image-pair Gaussian kernel)
semigroup   Dirichlet heat propagator with killing, bound measurements
noise       two-sided Wiener paths, stationary OU fields, temperedness
model       model parameters, nonlinearities, noise profiles
solver      delayed mild-solution stepper (method of steps / Picard)
pullback    pullback runs, absorbing radius, random fixed point
config      flat key = value experiment configs
experiments seeded experiment runners with CSV reports
cli         command-line entry point (``rdslab run`` / ``validate``)
"""

from __future__ import annotations

import ctypes
import sys

import numpy.random  # noqa: F401  numpy 2 imports it lazily: pay here, not at the first draw

from .errors import (
    ConditionViolatedError,
    ParameterError,
    RdsLabError,
    WindowExhaustedError,
)
from .grid import (
    Field,
    Grid,
    Segment,
    make_grid,
    segment_co_norm,
    sup_norm,
)
from .kernel import DispersalKernel, KernelParams, tail_mass
from .model import ModelParams, Nonlinearity, default_profiles
from .noise import (
    NoiseProfiles,
    OUParams,
    ProfileSpec,
    WienerPath,
    empirical_decay_bound,
    ou_series,
    sample_wiener,
    zero_wiener,
)
from .pullback import (
    DerivedConstants,
    absorbing_radius,
    cocycle_residual,
    derived_constants,
    fixed_point_estimate,
    pullback_bound,
    pullback_conjugated,
    pullback_state,
)
from .semigroup import DirichletHeatSemigroup
from .solver import (
    DelaySolver,
    SolverConfig,
    Trajectory,
    contraction_interval,
    evaluate_feedback,
    picard_gain,
)
from .config import ExperimentSpec, parse_config
from .experiments import ExperimentResult, run_experiment

# glibc raises its mmap and trim thresholds only once a large block is freed,
# so a fresh process maps each array of 128 KiB or more anew and faults its
# pages in on every reuse: ou-stats took 58,000 minor faults instead of 300,
# and 15 % longer.  Fix them at glibc's largest mmap threshold instead.
_mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform == "linux" else None
if _mallopt is not None:
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    _mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD

__version__ = "1.0.0"  # the only version string: pyproject.toml reads it

__all__ = [
    "ConditionViolatedError",
    "ParameterError",
    "RdsLabError",
    "WindowExhaustedError",
    "Field",
    "Grid",
    "Segment",
    "make_grid",
    "segment_co_norm",
    "sup_norm",
    "DispersalKernel",
    "KernelParams",
    "tail_mass",
    "ModelParams",
    "Nonlinearity",
    "default_profiles",
    "NoiseProfiles",
    "OUParams",
    "ProfileSpec",
    "WienerPath",
    "empirical_decay_bound",
    "ou_series",
    "sample_wiener",
    "zero_wiener",
    "DerivedConstants",
    "absorbing_radius",
    "cocycle_residual",
    "derived_constants",
    "fixed_point_estimate",
    "pullback_bound",
    "pullback_conjugated",
    "pullback_state",
    "DirichletHeatSemigroup",
    "DelaySolver",
    "SolverConfig",
    "Trajectory",
    "contraction_interval",
    "evaluate_feedback",
    "picard_gain",
    "ExperimentSpec",
    "parse_config",
    "ExperimentResult",
    "run_experiment",
    "__version__",
]
