"""The one lattice rule: ``grid.lattice_steps`` and the guard that keeps it single.

Every time, delay, horizon, window end and node coordinate that must sit
on a lattice is turned into a whole number of steps by
``grid.lattice_steps``; a value more than 1e-9 steps from an integer is
an error.  The guard at the end reads the package source with ``ast``
and fails if another module rounds a value to the lattice itself.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from rdslab.errors import ParameterError
from rdslab.grid import lattice_steps

SRC = Path(__file__).resolve().parents[1] / "src" / "rdslab"


@pytest.mark.parametrize(
    "span, step, minimum, want",
    [
        (0.3, 0.1, 0, 3),  # exact hit, up to the rounding of 0.3 / 0.1
        (0.0, 0.1, 0, 0),
        (-0.6, 0.1, None, -6),
        (20.0, 0.025, 800, 800),  # at the minimum
        ((7 + 1e-10) * 0.1, 0.1, 0, 7),  # 1e-10 steps off
        ((7 - 1e-10) * 0.1, 0.1, 0, 7),
        (np.array([0.0, 0.1, 0.2, 3.0]), 0.1, 0, [0, 1, 2, 30]),
        (np.array([-2.0, (-5 + 1e-10) * 0.1, 1.0]), 0.1, None, [-20, -5, 10]),
        ([0.5, 1.0], 0.5, 1, [1, 2]),
    ],
)
def test_lattice_steps_accepts_values_on_the_lattice(span, step, minimum, want):
    got = lattice_steps(span, step, "value", minimum=minimum)
    if np.ndim(span) == 0:
        assert type(got) is int and got == want
    else:
        assert isinstance(got, np.ndarray) and got.dtype == np.int64
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "span, step, minimum, fragment",
    [
        ((7 + 1e-8) * 0.1, 0.1, 0, f"t_lo {(7 + 1e-8) * 0.1} is off the lattice of step 0.1"),
        (0.55, 0.1, None, "t_lo 0.55 is off"),
        (-0.1, 0.1, 0, "t_lo -0.1 is below 0 steps"),
        (0.25, 0.025, 11, "t_lo 0.25 is below 11 steps"),
        (float("nan"), 0.1, None, "t_lo nan is off"),
        (float("inf"), 0.1, None, "t_lo inf is off"),
        (np.array([0.0, 0.1, (3 + 1e-8) * 0.1, 0.45]), 0.1, 0, f"t_lo {(3 + 1e-8) * 0.1} is off"),
        (np.array([0.0, 0.05, -1.0]), 0.1, 0, "t_lo 0.05 is off"),  # the first bad value
        (np.array([0.0, -1.0, 0.05]), 0.1, 0, "t_lo -1.0 is below 0 steps"),
        (np.array([0.0, np.inf]), 0.1, 0, "t_lo inf is off"),  # inf - inf raises no warning
        (np.array([0.1, np.nan, -1.0]), 0.1, 0, "t_lo nan is off"),
    ],
)
@pytest.mark.filterwarnings("error")
def test_lattice_steps_rejects_and_names_the_first_bad_value(span, step, minimum, fragment):
    with pytest.raises(ParameterError) as info:
        lattice_steps(span, step, "t_lo", minimum=minimum)
    assert fragment in str(info.value)


def test_lattice_steps_rejects_a_step_that_is_not_positive():
    for step in (0.0, -0.1, float("nan")):
        with pytest.raises(ParameterError, match="horizon: lattice step"):
            lattice_steps(1.0, step, "horizon")


def _lattice_roundings(path: Path) -> list[str]:
    """'line: call' for every round(...) or *.rint(...) call in a module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Name) and func.id == "round") or (
            isinstance(func, ast.Attribute) and func.attr == "rint"
        ):
            found.append(f"{node.lineno}: {ast.unparse(func)}(...)")
    return found


def test_only_grid_rounds_values_to_a_lattice():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10 and SRC / "grid.py" in modules
    assert _lattice_roundings(SRC / "grid.py"), "the guard no longer sees grid.lattice_steps"
    offenders = {
        p.name: calls for p in modules if p.name != "grid.py" and (calls := _lattice_roundings(p))
    }
    assert offenders == {}, "use grid.lattice_steps instead of rounding to the lattice"
