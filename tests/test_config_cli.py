"""Configuration parsing and the command-line front end."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rdslab import config
from rdslab.cli import main
from rdslab.config import EXPERIMENTS, config_template, parse_config
from rdslab.errors import ConditionViolatedError, ParameterError
from rdslab.experiments import SEMIGROUP_RATES, SEMIGROUP_TIMES, plan_experiment, run_experiment
from rdslab.grid import Field, Segment
from rdslab.noise import zero_wiener
from rdslab.pullback import cocycle_residual, fixed_point_estimate, pullback_conjugated
from rdslab.semigroup import DirichletHeatSemigroup
from rdslab.solver import DelaySolver, SolverConfig

VALID_KERNEL = """
experiment = kernel-bound
alpha = 1.0
L = 20
N = 200
seed = 7
trials = 100
"""


def test_parse_valid_config():
    spec = parse_config(VALID_KERNEL)
    assert spec.experiment == "kernel-bound"
    assert spec["alpha"] == 1.0
    assert spec["L"] == 20.0
    assert spec["N"] == 200
    assert spec["seed"] == 7
    assert spec["trials"] == 100
    with pytest.raises(ParameterError, match="workers"):
        parse_config(VALID_KERNEL + "workers = 2\n")  # no thread pool to size


def test_parse_comments_and_blank_lines():
    text = "# leading comment\n\nexperiment = kernel-bound  # trailing\nseed = 1\n"
    spec = parse_config(text)
    assert spec.experiment == "kernel-bound"
    assert spec["trials"] == 100  # default


def test_unknown_key_is_named():
    with pytest.raises(ParameterError, match="frobnicate"):
        parse_config("experiment = kernel-bound\nseed = 1\nfrobnicate = 3\n")


@pytest.mark.parametrize("name", ["ou-stats", "temperedness"])
@pytest.mark.parametrize("key", ["L", "N"])
def test_noise_only_experiments_take_no_grid_keys(name, key):
    assert key not in EXPERIMENTS[name]
    with pytest.raises(ParameterError, match=f"unknown key '{key}' for experiment '{name}'"):
        parse_config(f"experiment = {name}\nseed = 1\n{key} = 7\n")


def test_semigroup_bounds_takes_no_mu(tmp_path, capsys):
    # the sweep always runs the three rates: no value switches it to one
    assert "mu" not in EXPERIMENTS["semigroup-bounds"]
    cfg = _write(tmp_path, "mu.cfg", "experiment = semigroup-bounds\nseed = 7\nmu = 2\n")
    assert main(["validate", "--config", cfg]) == 2
    assert "unknown key 'mu' for experiment 'semigroup-bounds'" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("lipschitz = 0", "key 'lipschitz' must be positive, got 0.0"),
    ("epsilon = -1", "key 'epsilon' must be nonnegative, got -1.0"),
    ("tau = inf", "key 'tau' must be finite, got inf"),
    ("N = 0", "key 'N' must be at least 1, got 0"),
    ("N = 2.5", "key 'N': expected an integer, got '2.5'"),
])
def test_each_key_is_checked_by_its_rule(line, message):
    with pytest.raises(ParameterError) as err:
        parse_config(f"experiment = cocycle\nseed = 1\n{line}\n")
    assert str(err.value) == message


def test_missing_required_key_is_named():
    with pytest.raises(ParameterError, match="seed"):
        parse_config("experiment = kernel-bound\n")


def test_duplicate_key_is_named():
    with pytest.raises(ParameterError, match="alpha"):
        parse_config("experiment = kernel-bound\nseed = 1\nalpha = 1\nalpha = 2\n")


def test_malformed_value_is_named():
    with pytest.raises(ParameterError, match="trials"):
        parse_config("experiment = kernel-bound\nseed = 1\ntrials = ten\n")


def test_malformed_line_is_rejected():
    with pytest.raises(ParameterError, match="key = value"):
        parse_config("experiment = kernel-bound\nseed 1\n")


def test_negative_rate_names_mu():
    with pytest.raises(ParameterError, match="mu"):
        parse_config("experiment = ou-stats\nseed = 1\nmu = -1\n")


def test_unknown_experiment_rejected():
    with pytest.raises(ParameterError, match="experiment"):
        parse_config("experiment = warp-drive\nseed = 1\n")


def test_missing_experiment_rejected():
    with pytest.raises(ParameterError, match="experiment"):
        parse_config("seed = 1\n")


def test_fixed_point_delay_gate():
    text = "experiment = fixed-point\nseed = 1\ntau = 1.5\ndt = 0.1\n"
    with pytest.raises(ConditionViolatedError, match="tau"):
        parse_config(text)


def test_fixed_point_contraction_gate():
    # mu (1 - tau) must exceed eps * lip
    text = "experiment = fixed-point\nseed = 1\nmu = 1.5\n"
    with pytest.raises(ConditionViolatedError, match="contraction"):
        parse_config(text)


def test_absorbing_condition_gate():
    text = "experiment = absorbing\nseed = 1\nmu = 1.0\n"
    with pytest.raises(ConditionViolatedError, match="absorbing"):
        parse_config(text)


def test_picard_needs_finite_window():
    text = "experiment = picard-contraction\nseed = 1\nepsilon = 0.5\n"
    with pytest.raises(ConditionViolatedError, match="picard"):
        parse_config(text)


def test_dt_must_divide_tau():
    text = "experiment = cocycle\nseed = 1\ntau = 0.1\ndt = 0.03\n"
    with pytest.raises(ParameterError, match="dt"):
        parse_config(text)


def test_config_template_round_trips():
    for name in EXPERIMENTS:
        template = config_template(name)
        filled = template.replace("<required>", "3")
        spec = parse_config(filled)
        assert spec.experiment == name


def test_run_experiment_rejects_unknown():
    spec = parse_config(VALID_KERNEL)
    object.__setattr__(spec, "experiment", "mystery")
    with pytest.raises(ParameterError, match="mystery"):
        run_experiment(spec)


# ------------------------------------------------------------------ the CLI


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cli_validate_ok(tmp_path, capsys):
    cfg = _write(tmp_path, "a.cfg", VALID_KERNEL)
    assert main(["validate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "kernel-bound" in out
    assert "trials = 100" in out


def test_cli_validate_bad_config(tmp_path, capsys):
    cfg = _write(tmp_path, "a.cfg", "experiment = kernel-bound\nseed = 1\nbogus = 2\n")
    assert main(["validate", "--config", cfg]) == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["picard-contraction", "cocycle", "absorbing", "fixed-point",
                                  "convergence-study"])
def test_nonlinearity_is_not_a_key(tmp_path, capsys, name):
    # f is always bound * tanh(lipschitz * s / bound); the feedback is off at epsilon = 0
    assert "nonlinearity" not in EXPERIMENTS[name]
    cfg = _write(tmp_path, "a.cfg", f"experiment = {name}\nseed = 7\nnonlinearity = scaled_tanh\n")
    assert main(["validate", "--config", cfg]) == 2
    assert "unknown key 'nonlinearity'" in capsys.readouterr().err


def test_cli_validate_condition_violation(tmp_path, capsys):
    cfg = _write(tmp_path, "a.cfg", "experiment = fixed-point\nseed = 1\ntau = 1.5\ndt = 0.1\n")
    assert main(["validate", "--config", cfg]) == 2
    assert "tau" in capsys.readouterr().err


def test_fixed_point_horizon_off_the_step_lattice_is_rejected(tmp_path, capsys):
    for horizon in ("3.6", "3.4"):
        text = f"experiment = fixed-point\nseed = 1\nhorizon = {horizon}\n"
        with pytest.raises(ParameterError, match=f"horizon {horizon} is off the lattice"):
            parse_config(text)
        cfg = _write(tmp_path, "fp.cfg", text)
        assert main(["validate", "--config", cfg]) == 2
        assert f"horizon {horizon}" in capsys.readouterr().err
    assert parse_config("experiment = fixed-point\nseed = 1\nhorizon = 4\n")["horizon"] == 4.0


OVERFLOW_CONFIGS = (
    "experiment = absorbing\nseed = 1\nmu = 1000\ntau = 1\ndt = 0.025\n",
    "experiment = absorbing\nseed = 1\nepsilon = 0\nmu = 800\ntau = 1\n",
)


def test_cli_overflowing_delay_growth_exits_two(tmp_path, capsys):
    for text in OVERFLOW_CONFIGS:
        with pytest.raises(ConditionViolatedError, match="overflows"):
            parse_config(text)
        cfg = _write(tmp_path, "o.cfg", text)
        for command in (["validate"], ["run", "--out", str(tmp_path / "o")]):
            assert main([*command, "--config", cfg]) == 2
            assert "e^(mu*tau) overflows" in capsys.readouterr().err


# (config, what the error must say): OU windows, horizons past the record
# cap, then a grid past the cell cap
WINDOW_CONFIGS = (
    ("experiment = ou-stats\nseed = 1\nmu = 1e-300\npaths = 2\n",
     "mu = 1e-300 and dt_path = 0.02 need an OU window"),
    ("experiment = temperedness\nseed = 1\nmu = 1e-300\npaths = 2\n",
     "mu = 1e-300 and dt_path = 0.1 need an OU window"),
    ("experiment = absorbing\nseed = 1\nmu = 1e-300\nepsilon = 0\n",
     "mu = 1e-300 and dt = 0.025 need an OU window"),
    ("experiment = temperedness\nseed = 1\nhorizon = 1e300\npaths = 2\n",
     "horizon = 1e+300 and dt_path = 0.1 make a record"),
    ("experiment = fixed-point\nseed = 1\nhorizon = 1e300\n",
     "horizon = 1e+300 and dt = 0.01 make a record"),
    ("experiment = convergence-study\nseed = 1\nhorizon = 1e300\n",
     "horizon = 1e+300 and dt_ref = 0.005 make a record"),
    ("experiment = cocycle\nseed = 1\nt = 1e300\n",
     "t = 1e+300, s = 1.0 and dt = 0.01 make a record"),
    ("experiment = absorbing\nseed = 1\nt_max = 1e300\n",
     "t_max = 1e+300 and dt = 0.025 make a record"),
    ("experiment = kernel-bound\nseed = 7\nN = 100000000\n",
     "N = 100000000 exceeds 4095"),
)


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_cli_unbounded_ou_window_exits_two(tmp_path):
    # run in a child under a 2 GiB address-space limit, so that a window
    # that escaped the cap could not take the machine's memory
    pytest.importorskip("resource")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    for text, message in WINDOW_CONFIGS:
        cfg = _write(tmp_path, "w.cfg", text)
        done = subprocess.run(
            [sys.executable, "-m", "rdslab.cli", "run", "--config", cfg, "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, preexec_fn=_limit_address_space, timeout=120,
        )
        assert done.returncode == 2, done.stderr
        assert message in done.stderr
        assert "Traceback" not in done.stderr


def test_cell_cap_is_the_largest_n_whose_matrix_fits(tmp_path, capsys):
    # N = 4095 makes a (N + 1)^2 matrix of exactly 128 MiB; one cell more is refused
    assert parse_config("experiment = kernel-bound\nseed = 1\nN = 4095\n")["N"] == 4095
    with pytest.raises(ParameterError, match="N = 4096 exceeds 4095: .* more than 128 MiB"):
        parse_config("experiment = kernel-bound\nseed = 1\nN = 4096\n")
    cfg = _write(tmp_path, "n.cfg", "experiment = convergence-study\nseed = 1\nN = 4096\n")
    assert main(["validate", "--config", cfg]) == 2
    assert "N = 4096 exceeds 4095" in capsys.readouterr().err


def test_work_cap_is_the_largest_count_a_run_may_plan():
    # N = 999 makes 1,000 draws a trial, so 10^6 trials are the cap's 10^9 draws
    text = "experiment = kernel-bound\nseed = 1\nN = 999\ntrials = {}\n"
    assert parse_config(text.format(10**6))["trials"] == 10**6
    with pytest.raises(ParameterError, match="trials = 1000001 and N = 999 make 1000001000 "
                                             "random draws, more than 1000000000"):
        parse_config(text.format(10**6 + 1))


def test_record_cap_counts_the_record_the_run_samples():
    # m = 2 rows on [-horizon - 40, 0] at dt_path = 0.1: horizon = 49,960 fills
    # the 10^6 samples of a record, and the 1,000 default paths the 10^9 draws
    text = "experiment = temperedness\nseed = 1\nhorizon = {}\n"
    assert parse_config(text.format(49960))["horizon"] == 49960.0
    with pytest.raises(ParameterError, match="m = 2, horizon = 49960.1 and dt_path = 0.1 make "
                                             "a record of 1000002 samples, more than 1000000"):
        parse_config(text.format(49960.1))


def test_stack_cap_is_the_largest_trajectory_stack_a_run_may_hold():
    # fixed-point's lone run to depth horizon - 1 holds every frame: 2 horizon
    # frames of N + 1 = 4,096 doubles at dt = tau = 0.5, beside the kernel's two
    # one-frame block buffers, a noise row and its term, and 2 horizon OU
    # values: 8 (4,096 (2 horizon + 4) + 2 horizon) bytes, so horizon = 16,378
    # is the largest whose run fits in 2^30 bytes
    text = "experiment = fixed-point\nseed = 1\nN = 4095\ndt = 0.5\ntau = 0.5\nhorizon = {}\n"
    assert plan_experiment(parse_config(text.format(16378))).stack == 2**30 - 96
    with pytest.raises(ParameterError, match="N = 4095, horizon = 16379.0 and dt = 0.5 make a "
                                             "trajectory stack of 1073807280 bytes, more than "
                                             "1073741824"):
        parse_config(text.format(16379))


# one unit is 20 - 6e-10 steps of dt, on the lattice; two units are not
FIXED_POINT_DEPTH = ("experiment = fixed-point\nN = 4\nhorizon = 3.00000000009\n"
                     "dt = 0.050000000001500004\ntau = 0.050000000030000005\n")

# Configs (at seed 7) that validate passed and run then stopped with exit 2,
# each with the value run named, or with a traceback (the first two), a
# count with no cap, and a stack with no cap; validate now stops each,
# naming that value.  The last two name a noise lattice and a cocycle leg.
RUN_PLAN_CONFIGS = (
    ("experiment = semigroup-bounds\nN = 1\n", "bounds check cells N must be at least 2, got 1"),
    ("experiment = picard-contraction\nlipschitz = 1.7976931348623157e308\n",
     "make a contraction horizon of nan steps"),
    ("experiment = cocycle\nt = 0.333\n", "t_hi 1.333 is off the lattice of step 0.005"),
    ("experiment = absorbing\nt_max = 0.1\npaths = 1\n",
     "pullback time t 0.02 is off the lattice of step 0.025"),
    ("experiment = temperedness\nhorizon = 0.05\npaths = 2\n",
     "t_lo -40.05 is off the lattice of step 0.1"),
    ("experiment = convergence-study\nhorizon = 0.03\nN = 50\n",
     "horizon 0.03 is off the lattice of step 0.04"),
    # dt is 8 + 9e-10 steps of dt_ref: on its lattice, but two steps of dt are not
    ("experiment = convergence-study\nN = 8\nmu = 1000\ntau = 0.16\ndt = 0.0400000000045\n"
     "dt_ref = 0.005\nhorizon = 0.16\n", "time -0.160000000018 is off the lattice of step 0.005"),
    ("experiment = ou-stats\ndt_path = 0.7\npaths = 3\n",
     "t_lo -46.599999999999994 is off the lattice of step 0.7"),
    ("experiment = fixed-point\ndt = 0.3\ntau = 0.6\nmu = 10\n",
     "t_hi 1.0 is off the lattice of step 0.3"),
    (FIXED_POINT_DEPTH, "pullback time t 2.0 is off the lattice of step 0.05"),
    ("experiment = kernel-bound\ntrials = 100000000000000000000\n",
     "trials = 100000000000000000000 and N = 200 make"),
    # its first solve alone would take 2.06 GiB, its reference 16.5 GiB
    ("experiment = convergence-study\nN = 4095\nhorizon = 2700\n",
     "N = 4095, horizon = 2700.0 and dt_ref = 0.005 make a trajectory stack of 17705626696 bytes"),
    # each depth's batch: a window of 81 frames and two 10-frame block buffers, 10,000 histories wide
    ("experiment = absorbing\nN = 4095\nsegments = 10000\n",
     "N = 4095, segments = 10000, t_max = 10.0 and dt = 0.025 make a trajectory stack of 33096338648 bytes"),
    ("experiment = ou-stats\ndt_path = 0.3\npaths = 3\n", "time 1.0 is off the lattice of step 0.3"),
    ("experiment = cocycle\ns = 1e-12\n", "s 1e-12 is below 1 steps of 0.01"),
)


@pytest.mark.parametrize("text, message", RUN_PLAN_CONFIGS)
def test_validate_makes_the_runs_lattice_and_size_decisions(tmp_path, capsys, text, message):
    cfg = _write(tmp_path, "p.cfg", text + "seed = 7\n")
    assert main(["validate", "--config", cfg]) == 2
    assert message in capsys.readouterr().err


def _parsed_without_plan(text: str, monkeypatch):
    """The spec a config parses to before its run plan is made."""
    with monkeypatch.context() as patch:
        patch.setattr(config, "plan_experiment", lambda spec: None)
        return parse_config(text + "seed = 7\n")


def _solver_history_path(spec):
    """The spec's solver, a zero history and a zero path of a step each way,
    which no rule below reaches."""
    params, dt = spec.model_params(), spec["dt"]
    solver = DelaySolver(spec.grid(), params, SolverConfig(dt))
    psi = Segment.constant(Field.zero(spec.grid()), params.tau, dt)
    return solver, psi, zero_wiener(params.m, -dt, dt, dt)


def _bounds_check(spec):
    grid = spec.grid()
    DirichletHeatSemigroup(grid).check_bounds([Field.zero(grid)], SEMIGROUP_TIMES[0], SEMIGROUP_RATES)


def _cocycle(spec):
    solver, psi, path = _solver_history_path(spec)
    cocycle_residual(solver, psi, path, spec["t"], spec["s"])


def _first_pullback(spec):
    solver, psi, path = _solver_history_path(spec)
    pullback_conjugated(solver, [psi], path, spec["t_max"] * 1 / 5)  # the plan's first depth


def _fixed_point(spec):
    solver, psi, path = _solver_history_path(spec)
    fixed_point_estimate(solver, psi, psi, path, spec["horizon"])


def _convergence_solve(spec):
    solver, psi, path = _solver_history_path(spec)
    solver.solve(psi, path, spec["horizon"])  # the first solver's run


# (config, the library call that applies the same rule to the same values at run time)
PARITY_CONFIGS = (
    ("experiment = semigroup-bounds\nN = 1\n", _bounds_check),
    ("experiment = cocycle\ns = 1e-12\n", _cocycle),
    ("experiment = absorbing\nt_max = 0.1\npaths = 1\n", _first_pullback),
    (FIXED_POINT_DEPTH, _fixed_point),
    ("experiment = fixed-point\ndt = 0.04\ntau = 0.5\n", _fixed_point),
    ("experiment = convergence-study\nhorizon = 0.03\nN = 50\n", _convergence_solve),
)


@pytest.mark.parametrize("text, library", PARITY_CONFIGS)
def test_validate_and_the_library_word_a_rule_alike(tmp_path, capsys, monkeypatch, text, library):
    # each rule has one definition, which both the run plan and the library call
    cfg = _write(tmp_path, "p.cfg", text + "seed = 7\n")
    assert main(["validate", "--config", cfg]) == 2
    spec = _parsed_without_plan(text, monkeypatch)
    with pytest.raises(ParameterError) as err:
        library(spec)
    assert capsys.readouterr().err == f"error: {err.value}\n"


def _benchmark_configs() -> list[str]:
    # the benchmark's workload table, read as it stands
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    found = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(found)
    found.loader.exec_module(workloads)
    return [text for name in workloads.WORKLOADS for seed in (workloads.DEFAULT_SEED, 7)
            for text in workloads.config_texts(name, seed)]


def test_every_shipped_config_validates():
    # neither a run plan nor a cap refuses a run that the lab or its benchmark makes
    defaults = [f"experiment = {name}\nseed = {seed}\n" for name in EXPERIMENTS
                for seed in (20260814, 7)]
    for text in defaults + _benchmark_configs():
        parse_config(text)


def test_cli_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_cli_run_writes_csv_and_passes(tmp_path, capsys):
    cfg = _write(tmp_path, "a.cfg", "experiment = kernel-bound\nseed = 7\ntrials = 20\n")
    out_dir = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out_dir]) == 0
    csv_path = os.path.join(out_dir, "kernel-bound.csv")
    assert os.path.exists(csv_path)
    with open(csv_path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    assert lines[0] == "trial,sup_in,sup_out,ratio"
    assert len(lines) == 21  # header + one row per trial
    captured = capsys.readouterr().out
    assert "PASS kernel-sup-ratio" in captured
    assert "result: PASS" in captured


def test_cli_seed_override_changes_rows(tmp_path):
    cfg = _write(tmp_path, "a.cfg", "experiment = kernel-bound\nseed = 7\ntrials = 5\n")
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    out_c = str(tmp_path / "c")
    assert main(["run", "--config", cfg, "--out", out_a]) == 0
    assert main(["run", "--config", cfg, "--out", out_b, "--seed", "8"]) == 0
    assert main(["run", "--config", cfg, "--out", out_c, "--seed", "7"]) == 0
    read = lambda d: Path(d, "kernel-bound.csv").read_text(encoding="utf-8")
    assert read(out_a) != read(out_b)
    assert read(out_a) == read(out_c)


def test_seed_override_is_validated_like_the_file_seed():
    text = "experiment = kernel-bound\nseed = 7\n"
    assert parse_config(text, seed=8)["seed"] == 8
    with pytest.raises(ParameterError, match="seed"):
        parse_config(text, seed=-1)
    with pytest.raises(ParameterError, match="key 'seed' must be an integer"):
        parse_config(text, seed=1.5)
    # the file must still name a seed
    with pytest.raises(ParameterError, match="missing required key 'seed'"):
        parse_config("experiment = kernel-bound\n", seed=8)


def test_cli_negative_seed_override_exits_two(tmp_path, capsys):
    cfg = _write(tmp_path, "a.cfg", "experiment = kernel-bound\nseed = 7\ntrials = 5\n")
    out_dir = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out_dir), "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_unwritable_output(tmp_path, capsys):
    cfg = _write(tmp_path, "a.cfg", "experiment = kernel-bound\nseed = 7\ntrials = 5\n")
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory", encoding="utf-8")
    assert main(["run", "--config", cfg, "--out", str(blocker)]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_cli_env_var_default_out(tmp_path, monkeypatch):
    cfg = _write(tmp_path, "a.cfg", "experiment = kernel-bound\nseed = 7\ntrials = 5\n")
    target = tmp_path / "env-out"
    monkeypatch.setenv("RDSLAB_OUT", str(target))
    assert main(["run", "--config", cfg]) == 0
    assert (target / "kernel-bound.csv").exists()


def test_cli_failing_check_exits_one(tmp_path, capsys):
    # a sub-exponential envelope test with an absurdly small decay rate
    # cannot pass: nearly every path still carries O(1) squared noise
    cfg = _write(
        tmp_path,
        "a.cfg",
        "experiment = temperedness\nseed = 3\nbeta = 0.001\nhorizon = 20\npaths = 20\n",
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr().out
    assert "FAIL temperedness-decay" in captured
    assert "result: FAIL" in captured


def test_cli_usage_errors(capsys):
    assert main([]) == 2
    assert main(["run"]) == 2
    capsys.readouterr()
