"""Flat key = value experiment configuration.

One experiment per file.  Lines hold ``key = value`` pairs; ``#`` starts
a comment; every key is either required or has a documented default; keys
not in the experiment's schema are rejected.  All structural parameter
conditions an experiment depends on are validated here, before any
compute, so a bad configuration fails fast with the offending key or
condition named: the keys here, then the model conditions and every
lattice, window and size decision of the run by the experiment's run plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ParameterError, integer, nonnegative, positive
from .experiments import plan_experiment
from .grid import Grid, make_grid
from .model import ModelParams, Nonlinearity
from .noise import NoiseProfiles

__all__ = ["ExperimentSpec", "parse_config", "EXPERIMENTS", "config_template"]

_REQUIRED = object()

# Key rule -> (type of the text, its range by the package's argument rule).
_RULES = {
    "positive": (float, positive),
    "nonnegative": (float, nonnegative),
    "count": (int, lambda name, value: integer(name, value, 1)),
    "seed": (int, lambda name, value: integer(name, value, 0)),
}

_SEED = {"seed": ("seed", _REQUIRED)}
# Keys of the experiments that build a grid; the noise-only ones take no L or N.
_COMMON = {**_SEED, "L": ("positive", 20.0), "N": ("count", 200)}

_DYNAMICS = {
    "mu": ("positive", 1.0),
    "epsilon": ("nonnegative", 1.0),
    "lipschitz": ("positive", 1.0),
    "bound": ("positive", 1.0),
    "alpha": ("positive", 1.0),
    "tau": ("positive", 0.1),
    "m": ("count", 1),
    "dt": ("positive", 0.01),
}

# Experiment name -> key schema: {key: (rule, default-or-required)}.
EXPERIMENTS: dict[str, dict] = {
    "kernel-bound": {**_COMMON, "alpha": ("positive", 1.0), "trials": ("count", 100)},
    "semigroup-bounds": {**_COMMON, "fields": ("count", 20)},
    "ou-stats": {**_SEED, "mu": ("positive", 1.0), "dt_path": ("positive", 0.02),
                 "paths": ("count", 10000)},
    "temperedness": {
        **_SEED,
        "mu": ("positive", 1.0),
        "beta": ("positive", 0.1),
        "horizon": ("positive", 200.0),
        "dt_path": ("positive", 0.1),
        "paths": ("count", 1000),
        "m": ("count", 2),
    },
    "picard-contraction": {
        **_COMMON,
        **_DYNAMICS,
        "epsilon": ("nonnegative", 2.0),
        "dt": ("positive", 0.005),
        "horizon_fraction": ("positive", 0.9),
    },
    "cocycle": {**_COMMON, **_DYNAMICS, "t": ("nonnegative", 1.0), "s": ("nonnegative", 1.0)},
    "absorbing": {
        **_COMMON,
        **_DYNAMICS,
        "mu": ("positive", 2.0),
        "tau": ("positive", 0.25),
        "dt": ("positive", 0.025),
        "paths": ("count", 20),
        "segments": ("count", 5),
        "co_max": ("positive", 10.0),
        "t_max": ("positive", 10.0),
    },
    "fixed-point": {
        **_COMMON,
        **_DYNAMICS,
        "mu": ("positive", 3.0),
        "tau": ("positive", 0.5),
        "horizon": ("positive", 10.0),
    },
    "convergence-study": {
        **_COMMON,
        **_DYNAMICS,
        "N": ("count", 800),
        "tau": ("positive", 0.2),
        "dt": ("positive", 0.04),
        "dt_ref": ("positive", 0.005),
        "horizon": ("positive", 1.0),
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


def parse_config(text: str, seed: int | None = None) -> ExperimentSpec:
    """Parse and validate a flat key = value configuration.

    A given ``seed`` replaces the file's seed, which the file must still
    name, and is validated with the other values.  Raises ParameterError
    naming the offending key for unknown, missing, duplicated, or
    malformed entries and for a run plan that fails, and
    ConditionViolatedError when the chosen experiment's structural
    parameter conditions fail.
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
        kind = _RULES[schema[key][0]][0]
        try:
            values[key] = kind(text_value)
        except ValueError:
            expected = "an integer" if kind is int else "a number"
            raise ParameterError(f"key {key!r}: expected {expected}, got {text_value!r}") from None
    for key, (_, default) in schema.items():
        if key in values:
            continue
        if default is _REQUIRED:
            raise ParameterError(f"missing required key {key!r} for experiment {name!r}")
        values[key] = default
    if seed is not None:
        values["seed"] = seed
    for key, value in values.items():
        _RULES[schema[key][0]][1](f"key {key!r}", value)

    spec = ExperimentSpec(name, values)
    _validate_ranges(values)
    plan_experiment(spec)  # the model's objects, conditions, lattices and sizes
    return spec


# Most cells N.  The solver and the kernel assemble dense (N + 1)^2
# operator matrices of 8-byte entries, and an assembly holds several at
# once; at most 128 MiB a matrix caps N at 4,095, five times the largest
# default (N = 800, 5 MB a matrix).
_MAX_MATRIX_BYTES = 2**27
_MAX_CELLS = math.isqrt(_MAX_MATRIX_BYTES // 8) - 1


def _validate_ranges(values: dict) -> None:
    if "N" in values and values["N"] > _MAX_CELLS:
        raise ParameterError(f"N = {values['N']} exceeds {_MAX_CELLS}: each dense (N + 1)^2 "
                             f"operator matrix would take more than {_MAX_MATRIX_BYTES >> 20} MiB")
    frac = values.get("horizon_fraction", 1.0)
    if frac > 1.0:
        raise ParameterError(f"key 'horizon_fraction' must be at most 1, got {frac}")


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
