"""Property tests: no config text makes validation escape as a traceback.

Whatever the text, ``parse_config`` either returns a spec or raises
ParameterError / ConditionViolatedError, and ``rdslab validate`` exits 0
or 2 accordingly.  Nothing here runs an experiment.
"""

from __future__ import annotations

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from rdslab.cli import main
from rdslab.config import EXPERIMENTS, parse_config
from rdslab.errors import ConditionViolatedError, ParameterError
from test_config_cli import OVERFLOW_CONFIGS

TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=16)
VALUES = st.one_of(
    st.integers(-5, 3000).map(str),
    st.floats(1e-4, 1e4).map(repr),
    st.floats().map(repr),  # any float, with nan, inf and subnormals
    st.integers().map(str),
    st.sampled_from(["0", "-0", "1e308", "-1e308", "5e-324", "1e400", "-1e400",
                     "inf", "nan", "1_000", "0x10", "1e", "--1", "True"]),
    TEXT,
)


@st.composite
def configs(draw) -> str:
    name = draw(st.sampled_from(sorted(EXPERIMENTS)) | TEXT)
    schema = sorted(EXPERIMENTS.get(name, EXPERIMENTS["absorbing"]))
    keys = draw(st.lists(st.sampled_from(schema), unique=True))
    lines = [f"experiment = {name}"]
    if draw(st.booleans()):
        lines.append(f"seed = {draw(st.integers(0, 2**40))}")
    lines += [f"{key} = {draw(VALUES)}" for key in keys]
    lines += draw(st.lists(TEXT, max_size=2))  # unknown keys, malformed lines
    return "\n".join(draw(st.permutations(lines))) + "\n"


def _rejection(text: str):
    """The named error parse_config raises, or None for a valid config."""
    try:
        parse_config(text)
    except (ParameterError, ConditionViolatedError) as exc:
        return exc
    return None


FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@FUZZ
@given(configs())
@example(OVERFLOW_CONFIGS[0])
@example(OVERFLOW_CONFIGS[1])
def test_parse_config_raises_only_named_errors(text):
    exc = _rejection(text)
    if text in OVERFLOW_CONFIGS:
        assert isinstance(exc, ConditionViolatedError)


@settings(FUZZ, max_examples=60)
@given(configs())
@example(OVERFLOW_CONFIGS[0])
@example(OVERFLOW_CONFIGS[1])
def test_cli_validate_exits_zero_or_two(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.cfg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        with open(path, encoding="utf-8") as handle:
            read_back = handle.read()  # newline translation may regroup lines
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["validate", "--config", path])
    exc = _rejection(read_back)
    assert code == (0 if exc is None else 2)
    if exc is not None:
        assert err.getvalue() == f"error: {exc}\n"
