"""The one check type: verdict and text both follow from the numbers."""

from __future__ import annotations

import math

from rdslab.config import parse_config
from rdslab.experiments import CheckResult, run_experiment
from test_acceptance import TINY_CONFIGS

INF = math.inf


def test_verdict_is_the_closed_interval():
    assert CheckResult("c", 1.0, -INF, 1.0).passed
    assert not CheckResult("c", math.nextafter(1.0, 2.0), -INF, 1.0).passed
    assert CheckResult("c", 0.95, 0.95, INF).passed
    assert not CheckResult("c", 0.9, 0.95, INF).passed
    assert CheckResult("c", 0.0, 0.0, 0.0).passed
    assert not CheckResult("c", 5e-324, 0.0, 0.0).passed
    assert not CheckResult("c", 3.5, 1.5, 3.0).passed
    # NaN fails every check, even an unbounded one
    assert not CheckResult("c", math.nan, -INF, INF).passed
    assert CheckResult("c", INF, 0.0, INF).passed


def test_line_prints_measured_value_and_bounds():
    assert CheckResult("c", 0.5, -INF, 1.0, "what").line() == "PASS c: 0.5 <= 1 (what)"
    assert CheckResult("c", 2.0, 1.5, 3.0).line() == "PASS c: 2 in [1.5, 3]"
    assert CheckResult("c", 0.0, 0.0, 0.0).line() == "PASS c: 0 == 0"
    assert CheckResult("c", 0.9, 0.95, INF).line() == "FAIL c: 0.9 >= 0.95"
    assert CheckResult("c", math.nan, -INF, 1e-4).line() == "FAIL c: nan <= 0.0001"
    # bounds keep enough digits to show a small offset
    assert CheckResult("c", 1.0, -INF, 1.0 + 1e-8).line() == "PASS c: 1 <= 1.00000001"


def test_every_experiment_check_carries_its_number():
    for text in TINY_CONFIGS:
        result = run_experiment(parse_config(text))
        for check in result.checks:
            assert check.line().startswith(("PASS " if check.passed else "FAIL ") + check.name + ": ")
            assert f"{check.measured:.6g}" in check.line()
