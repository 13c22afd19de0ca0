"""Property tests: no config text makes validation escape as a traceback.

Whatever the text, ``parse_config`` either returns a spec or raises
ParameterError / ConditionViolatedError, and ``rdslab validate`` exits 0
or 2 accordingly.  And a small config that validates runs without an
error: its checks may fail (exit 1), but never its run (exit 2), and the
run takes the work its plan counted and holds no more than its stack.
"""

from __future__ import annotations

import io
import os
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from unittest import mock

from rdslab import experiments, quadrature
from rdslab.cli import main
from rdslab.config import EXPERIMENTS, parse_config
from rdslab.errors import ConditionViolatedError, ParameterError
from rdslab.experiments import plan_experiment, run_experiment
from rdslab.solver import DelaySolver
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


# Small values for each key: lattice steps that divide and that do not, so
# that many configs validate and many are refused by their run plans.
SMALL = {
    "L": ["2", "5", "20"], "N": ["4", "8"], "alpha": ["0.5", "4"],
    "trials": ["1", "3"], "fields": ["1", "2"], "paths": ["1", "3"], "segments": ["1", "2"],
    "m": ["1", "2", "3"], "mu": ["1", "2", "3", "10"], "epsilon": ["0", "0.5", "2", "3"],
    "lipschitz": ["0.5", "1"], "bound": ["1"], "beta": ["0.1", "1"],
    "tau": ["0.02", "0.05", "0.1", "0.2", "0.25", "0.6"],
    "dt": ["0.005", "0.01", "0.02", "0.025", "0.03", "0.05", "0.3"],
    "dt_path": ["0.02", "0.1", "0.3", "0.7"], "dt_ref": ["0.005", "0.01", "0.02"],
    "horizon": ["0.03", "0.05", "0.2", "1", "3", "4"], "horizon_fraction": ["0.5", "1"],
    "t": ["0", "0.01", "0.05", "0.333", "0.37"], "s": ["0", "0.02", "0.53"],
    "t_max": ["0.1", "1", "3"], "co_max": ["1", "10"],
}


# Keys that size a run; each is always set, since their defaults make full runs.
SIZES = {"N", "trials", "fields", "paths", "segments", "horizon", "t_max", "t", "s"}


@st.composite
def small_configs(draw) -> str:
    name = draw(st.sampled_from(sorted(EXPERIMENTS)))
    optional = sorted(set(EXPERIMENTS[name]) - SIZES - {"seed"})
    keys = sorted(SIZES & set(EXPERIMENTS[name]))
    keys += draw(st.lists(st.sampled_from(optional), unique=True))
    lines = [f"{key} = {draw(st.sampled_from(SMALL[key]))}" for key in keys]
    return "\n".join([f"experiment = {name}", "seed = 7", *lines]) + "\n"


def _allocation(array: np.ndarray) -> np.ndarray:
    """The array that owns the memory ``array`` views."""
    while array.base is not None:
        array = array.base
    return array


# tracemalloc also counts the interpreter's own objects that a kernel call
# makes (array headers, views, slices), about 2 KiB at any size; a plan
# counts array data only
_INTERPRETER = 4096


def _counted_run(spec):
    """Run the spec, counting its trajectory-steps, path draws and matrix
    assemblies, and measuring the bytes its stepping calls hold."""
    counts = {"steps": 0, "samples": 0, "assemblies": 0, "stack": 0}
    sweep, sample = DelaySolver._sweep, experiments.sample_wiener
    assemble = quadrature.operator_matrix

    def counted_sweep(self, out, delayed, z, phase):
        counts["steps"] += (out.shape[0] - self.delay_steps - 1) * out.shape[1]
        # the allocations of the stack or window, of the previous Picard sweep
        # (a solve reads its own stack) and of the OU values, and the peak of
        # what the kernel allocates itself
        owners = {id(a): a for a in map(_allocation, (out, delayed, z))}
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        sweep(self, out, delayed, z, phase)
        own = tracemalloc.get_traced_memory()[1] - before
        counts["stack"] = max(counts["stack"], own + sum(a.nbytes for a in owners.values()))

    def counted_sample(*args):
        path = sample(*args)
        counts["samples"] += path.base_values.shape[0] * (path.base_values.shape[1] - 1)
        return path

    def counted_assembly(*args, **kwargs):
        counts["assemblies"] += 1
        return assemble(*args, **kwargs)

    tracemalloc.start()
    try:
        with mock.patch.object(DelaySolver, "_sweep", counted_sweep), \
                mock.patch.object(experiments, "sample_wiener", counted_sample), \
                mock.patch.object(quadrature, "operator_matrix", counted_assembly):
            run_experiment(spec).csv_text()
    finally:
        tracemalloc.stop()
    return counts


@settings(FUZZ, max_examples=100)
@given(small_configs())
@example("experiment = convergence-study\nseed = 7\nmu = 3\nN = 8\n")  # solvers' OU windows differ
@example("experiment = convergence-study\nseed = 7\nN = 8\ndt = 0.04\ndt_ref = 0.01\n")  # two carries
def test_a_config_that_validates_runs_the_work_it_planned(text):
    if _rejection(text) is not None:
        return
    spec = parse_config(text)
    plan, counts = plan_experiment(spec), _counted_run(spec)
    assert counts["assemblies"] == plan.assemblies
    assert counts["stack"] <= plan.stack + _INTERPRETER
    if spec.experiment == "picard-contraction":  # the plan bounds the sweeps
        assert counts["steps"] <= plan.steps
    else:
        assert counts["steps"] == plan.steps
    if spec.experiment not in ("kernel-bound", "semigroup-bounds"):  # their draws fill fields
        assert counts["samples"] == plan.samples
