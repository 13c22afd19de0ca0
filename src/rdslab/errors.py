"""Error vocabulary shared across the package.

Three failure modes recur everywhere: a caller handed us an invalid or
inconsistent value, a stochastic path does not extend far enough for the
requested evaluation, and a structural hypothesis needed by a formula does
not hold for the given parameters.  Each gets its own exception type so
callers (and the CLI) can map them to distinct exit behaviour.
"""

from __future__ import annotations

from numbers import Real


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


def require_real(name: str, value):
    """``value``, or ParameterError naming ``name`` if it is not a real number."""
    if not isinstance(value, Real):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    return value
