"""Flat key = value experiment configuration.

One experiment per file.  Lines hold ``key = value`` pairs; ``#`` starts
a comment; every key is either required or has a documented default; keys
not in the experiment's schema are rejected.  All structural parameter
conditions an experiment depends on are validated here, before any
compute, so a bad configuration fails fast with the offending key or
condition named.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditionViolatedError, ParameterError
from .grid import Grid, lattice_steps, make_grid
from .model import ModelParams, Nonlinearity
from .noise import NoiseProfiles
from .solver import contraction_interval

__all__ = ["ExperimentSpec", "parse_config", "EXPERIMENTS", "config_template"]

_REQUIRED = object()


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ParameterError(f"expected an integer, got {text!r}") from exc


def _float(text: str) -> float:
    try:
        v = float(text)
    except ValueError as exc:
        raise ParameterError(f"expected a number, got {text!r}") from exc
    if not np.isfinite(v):
        raise ParameterError(f"expected a finite number, got {text!r}")
    return v


_SEED = {"seed": (_int, _REQUIRED)}
# Keys of the experiments that build a grid; the noise-only ones take no L or N.
_COMMON = {
    **_SEED,
    "L": (_float, 20.0),
    "N": (_int, 200),
}

_DYNAMICS = {
    "mu": (_float, 1.0),
    "epsilon": (_float, 1.0),
    "lipschitz": (_float, 1.0),
    "bound": (_float, 1.0),
    "alpha": (_float, 1.0),
    "tau": (_float, 0.1),
    "m": (_int, 1),
    "dt": (_float, 0.01),
}

# Experiment name -> key schema: {key: (converter, default-or-required)}.
EXPERIMENTS: dict[str, dict] = {
    "kernel-bound": {**_COMMON, "alpha": (_float, 1.0), "trials": (_int, 100)},
    "semigroup-bounds": {**_COMMON, "mu": (_float, 1.0), "fields": (_int, 20)},
    "ou-stats": {**_SEED, "mu": (_float, 1.0), "dt_path": (_float, 0.02), "paths": (_int, 10000)},
    "temperedness": {
        **_SEED,
        "mu": (_float, 1.0),
        "beta": (_float, 0.1),
        "horizon": (_float, 200.0),
        "dt_path": (_float, 0.1),
        "paths": (_int, 1000),
        "m": (_int, 2),
    },
    "picard-contraction": {
        **_COMMON,
        **_DYNAMICS,
        "epsilon": (_float, 2.0),
        "dt": (_float, 0.005),
        "horizon_fraction": (_float, 0.9),
    },
    "cocycle": {**_COMMON, **_DYNAMICS, "t": (_float, 1.0), "s": (_float, 1.0)},
    "absorbing": {
        **_COMMON,
        **_DYNAMICS,
        "mu": (_float, 2.0),
        "tau": (_float, 0.25),
        "dt": (_float, 0.025),
        "paths": (_int, 20),
        "segments": (_int, 5),
        "co_max": (_float, 10.0),
        "t_max": (_float, 10.0),
    },
    "fixed-point": {
        **_COMMON,
        **_DYNAMICS,
        "mu": (_float, 3.0),
        "tau": (_float, 0.5),
        "horizon": (_float, 10.0),
    },
    "convergence-study": {
        **_COMMON,
        **_DYNAMICS,
        "N": (_int, 800),
        "tau": (_float, 0.2),
        "dt": (_float, 0.04),
        "dt_ref": (_float, 0.005),
        "horizon": (_float, 1.0),
    },
}


@dataclass(frozen=True)
class ExperimentSpec:
    """A parsed, validated experiment configuration."""

    experiment: str
    values: dict = field(repr=False)

    def __getitem__(self, key: str):
        return self.values[key]

    def grid(self) -> Grid:
        return make_grid(self.values["L"], self.values["N"])

    def model_params(self) -> ModelParams:
        v = self.values
        return ModelParams(
            mu=v["mu"],
            epsilon=v["epsilon"],
            alpha=v["alpha"],
            tau=v["tau"],
            nonlinearity=Nonlinearity(v["lipschitz"], v["bound"]),
            profiles=NoiseProfiles(v["m"], v["L"]),
        )


def _validate_conditions(spec: ExperimentSpec, params: ModelParams | None) -> None:
    """Experiment-specific structural requirements, checked pre-compute;
    ``params`` is the spec's model, None for an experiment without one."""
    name = spec.experiment
    if name == "fixed-point":
        # the contraction condition asks for tau < 1 and names tau
        if not params.contraction_condition:
            raise ConditionViolatedError(
                "fixed-point contraction gate failed: " + params.describe_conditions()
            )
        # pullback depths 1, 2, ..., horizon: fixed_point_estimate's check at step 1
        lattice_steps(spec["horizon"], 1.0, "horizon", minimum=3)
    elif name == "absorbing":
        if not params.absorbing_condition:
            raise ConditionViolatedError(
                "absorbing-ball condition failed: " + params.describe_conditions()
            )
    elif name == "picard-contraction":
        horizon = contraction_interval(params)
        if horizon is None:
            raise ConditionViolatedError(
                "picard-contraction needs eps*lipschitz > mu so the contraction "
                f"horizon is finite; got eps*lipschitz = {params.feedback_lipschitz} "
                f"<= mu = {params.mu}"
            )
        if spec["dt"] >= spec["horizon_fraction"] * horizon:
            raise ParameterError(
                f"dt = {spec['dt']} must be below the tested horizon "
                f"{spec['horizon_fraction'] * horizon:.6g}"
            )
    if name in ("picard-contraction", "cocycle", "absorbing", "fixed-point", "convergence-study"):
        lattice_steps(spec["tau"], spec["dt"], "tau (in steps of dt)")
    if name == "convergence-study":
        half = spec["dt"] / 2.0
        lattice_steps(spec["tau"], half, "tau (in steps of dt/2)")
        for label, step in (("dt", spec["dt"]), ("dt/2", half)):
            lattice_steps(step, spec["dt_ref"], f"{label} (in steps of dt_ref)", minimum=2)


def parse_config(text: str, seed: int | None = None) -> ExperimentSpec:
    """Parse and validate a flat key = value configuration.

    A given ``seed`` replaces the file's seed, which the file must still
    name, and is validated with the other values.  Raises ParameterError
    naming the offending key for unknown, missing, duplicated, or
    malformed entries, and ConditionViolatedError when the chosen
    experiment's structural parameter conditions fail.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ParameterError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in body.split("=", 1))
        if not key or not value:
            raise ParameterError(f"line {lineno}: empty key or value in {line!r}")
        if key in raw:
            raise ParameterError(f"duplicate key {key!r} (line {lineno})")
        raw[key] = value

    if "experiment" not in raw:
        raise ParameterError("missing key 'experiment'")
    name = raw.pop("experiment")
    if name not in EXPERIMENTS:
        raise ParameterError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        )
    schema = EXPERIMENTS[name]
    values: dict = {}
    for key, text_value in raw.items():
        if key not in schema:
            raise ParameterError(f"unknown key {key!r} for experiment {name!r}")
        convert = schema[key][0]
        try:
            values[key] = convert(text_value)
        except ParameterError as exc:
            raise ParameterError(f"key {key!r}: {exc}") from exc
    for key, (_, default) in schema.items():
        if key in values:
            continue
        if default is _REQUIRED:
            raise ParameterError(f"missing required key {key!r} for experiment {name!r}")
        values[key] = default
    if seed is not None:
        values["seed"] = seed

    spec = ExperimentSpec(name, values)
    _validate_ranges(values)
    # full object-level validation, errors name fields
    params = spec.model_params() if "tau" in values else None
    _validate_conditions(spec, params)
    return spec


_POSITIVE = ("L", "mu", "alpha", "tau", "dt", "dt_path", "dt_ref", "beta",
             "horizon", "t_max", "co_max", "bound")
_NONNEGATIVE = ("epsilon", "lipschitz", "seed", "t", "s")
_POSITIVE_INT = ("N", "trials", "fields", "paths", "segments", "m")
# Most steps in the OU window, 40 / (mu * step) at the finest time step,
# and in the window plus the horizon, (40 / mu + horizon) / step: the
# defaults need at most 8,000 and 8,200; a record this long takes 8 MB a path.
_MAX_WINDOW_STEPS = 10**6
# The keys whose sum is a run's horizon: cocycle runs t + s, the others name one.
_HORIZONS = ("horizon", "t_max", "t", "s")
# Most cells N.  The solver and the kernel assemble dense (N + 1)^2
# operator matrices of 8-byte entries, and an assembly holds several at
# once; at most 128 MiB a matrix caps N at 4,095, five times the largest
# default (N = 800, 5 MB a matrix).
_MAX_MATRIX_BYTES = 2**27
_MAX_CELLS = math.isqrt(_MAX_MATRIX_BYTES // 8) - 1


def _validate_ranges(values: dict) -> None:
    for key in _POSITIVE:
        if key in values and not values[key] > 0:
            raise ParameterError(f"key {key!r} must be positive, got {values[key]}")
    for key in _NONNEGATIVE:
        if key in values and values[key] < 0:
            raise ParameterError(f"key {key!r} must be nonnegative, got {values[key]}")
    for key in _POSITIVE_INT:
        if key in values and values[key] < 1:
            raise ParameterError(f"key {key!r} must be at least 1, got {values[key]}")
    if "N" in values and values["N"] > _MAX_CELLS:
        raise ParameterError(f"N = {values['N']} exceeds {_MAX_CELLS}: each dense (N + 1)^2 "
                             f"operator matrix would take more than {_MAX_MATRIX_BYTES >> 20} MiB")
    steps = [key for key in ("dt_path", "dt", "dt_ref") if key in values]
    if "mu" in values and steps:
        key = min(steps, key=values.get)
        if not values["mu"] * values[key] * _MAX_WINDOW_STEPS >= 40.0:
            raise ParameterError(f"mu = {values['mu']} and {key} = {values[key]} need an OU "
                                 f"window of 40 / (mu * {key}) > {_MAX_WINDOW_STEPS} steps")
        spans = [k for k in _HORIZONS if k in values]
        record = 40.0 / values["mu"] + sum(values[k] for k in spans)
        if spans and record / values[key] > _MAX_WINDOW_STEPS:
            named = ", ".join(f"{k} = {values[k]}" for k in spans)
            raise ParameterError(f"{named} and {key} = {values[key]} make a record of "
                                 f"(40 / mu + {' + '.join(spans)}) / {key} > {_MAX_WINDOW_STEPS} steps")
    frac = values.get("horizon_fraction")
    if frac is not None and not 0.0 < frac <= 1.0:
        raise ParameterError(f"key 'horizon_fraction' must lie in (0, 1], got {frac}")


def config_template(name: str) -> str:
    """A commented template configuration for the named experiment."""
    if name not in EXPERIMENTS:
        raise ParameterError(f"unknown experiment {name!r}")
    lines = [f"experiment = {name}"]
    for key, (_, default) in sorted(EXPERIMENTS[name].items()):
        if default is _REQUIRED:
            lines.append(f"{key} = <required>")
        else:
            lines.append(f"{key} = {default}")
    return "\n".join(lines) + "\n"
