"""Error vocabulary shared across the package, and its one argument rule.

Three failure modes recur everywhere: a caller handed us an invalid or
inconsistent value, a stochastic path does not extend far enough for the
requested evaluation, and a structural hypothesis needed by a formula does
not hold for the given parameters.  Each gets its own exception type so
callers (and the CLI) can map them to distinct exit behaviour.

The functions below are the one argument rule, as ``lattice_steps`` is
the one lattice rule: every public function and configuration key checks
its scalars and converts its arrays here, so a malformed argument ends as
a ParameterError that names it, never as a TypeError or ValueError.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from numbers import Integral, Real

import numpy as np


class RdsLabError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(RdsLabError, ValueError):
    """An argument or configuration value is invalid.

    The message always names the offending parameter or key.
    """


class WindowExhaustedError(RdsLabError, RuntimeError):
    """A path evaluation was requested outside the sampled time window."""


class ConditionViolatedError(RdsLabError, RuntimeError):
    """A structural parameter condition required by a formula is false.

    The message states the condition so the caller can see which
    inequality failed.
    """


def _finite(name: str, value):
    """``value``, if a real number that is finite as a double."""
    if not isinstance(value, Real):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the double range
        finite, value = False, "a number beyond the double range"
    if not finite:
        raise ParameterError(f"{name} must be finite, got {value}")
    return value


def positive(name: str, value):
    """``value``, if a finite real number above 0; ParameterError naming ``name`` otherwise."""
    if _finite(name, value) > 0:
        return value
    raise ParameterError(f"{name} must be positive, got {value!r}")


def nonnegative(name: str, value):
    """``value``, if a finite real number >= 0; ParameterError naming ``name`` otherwise."""
    if _finite(name, value) >= 0:
        return value
    raise ParameterError(f"{name} must be nonnegative, got {value!r}")


def integer(name: str, value, lo: int, hi: int | None = None):
    """``value``, if an int in lo..hi (no upper end at ``hi=None``); ParameterError otherwise."""
    if not isinstance(value, Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if lo <= value and (hi is None or value <= hi):
        return value
    span = f"at least {lo}" if hi is None else f"in {lo}..{hi}"
    raise ParameterError(f"{name} must be {span}, got {value!r}")


def seeds(value) -> list:
    """The list of seeds in ``value``, a nonnegative int or a non-empty sequence of them."""
    if isinstance(value, Integral):
        value = [value]
    elif isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
        raise ParameterError(f"seed must be an int or a sequence of ints, got {value!r}")
    out = [integer("seed", s, 0) for s in value]
    if not out:
        raise ParameterError("seed sequence is empty")
    return out


def float_array(name: str, value) -> np.ndarray:
    """``value`` as a float array, uncopied if one; ParameterError for a string or a non-number."""
    if isinstance(value, (str, bytes)):
        raise ParameterError(f"{name} must be real, got {value!r}")
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"{name} must be real: {exc}") from None
