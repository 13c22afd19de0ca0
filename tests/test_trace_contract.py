"""The benchmark's layer trace binds rdslab names; keep them resolvable.

``perfbench/layertrace.py`` wraps functions and methods by dotted name
and its hooks read call arguments by parameter name.  A refactor that
renames one of them does not fail the program, it silently makes a
traced benchmark run report ``correct: false``.  This test reads that
file as text (it imports and edits nothing there) and checks every
target and every argument name a hook reads against the package, and
every attribute a hook reads off a solver, trajectory, report or segment
against one tiny real call of each traced function.  It also runs each
workload's experiments at small sizes under the installed trace, in a
subprocess per workload, and checks that every wrapper the workload
expects is reached.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rdslab.grid import Segment, make_grid, segment_co_norm
from rdslab.model import ModelParams
from rdslab.noise import NoiseProfiles, sample_wiener
from rdslab.solver import DelaySolver, SolverConfig, Trajectory

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
LAYERTRACE = PERFBENCH / "layertrace.py"

# Targets removed on purpose; the trace lists them as absent and reads 0.
RETIRED = {"noise.ou_vector": "folded into ou_series, the only OU evaluator"}


def _wrappers() -> tuple[list[tuple[str, str | None]], dict[str, set[str]]]:
    """(target, hook name) per Wrapper, and the args[...] keys each hook reads."""
    tree = ast.parse(LAYERTRACE.read_text(encoding="utf-8"))
    wrappers = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Wrapper":
            hook = next((kw.value.id for kw in node.keywords if kw.arg == "hook"), None)
            wrappers.append((node.args[0].value, hook))
    reads = {}
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            reads[fn.name] = {
                sub.slice.value
                for sub in ast.walk(fn)
                if isinstance(sub, ast.Subscript)
                and getattr(sub.value, "id", None) == "args"
                and isinstance(sub.slice, ast.Constant)
            }
    return wrappers, reads


def _resolve(target: str):
    module_name, *owner, attr = target.split(".")
    holder = importlib.import_module("rdslab." + module_name)
    for part in owner:
        holder = getattr(holder, part, None)
    return getattr(holder, attr, None) if holder is not None else None


def _hook_attributes() -> set[str]:
    """Attribute names the hooks, and the helpers they call, read off their
    arguments and results (the tracer's own ``tr.`` attributes excluded)."""
    tree = ast.parse(LAYERTRACE.read_text(encoding="utf-8"))
    funcs = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    todo, seen = [hook for _, hook in WRAPPERS if hook], set()
    while todo:
        name = todo.pop()
        if name in seen or name not in funcs:
            continue
        seen.add(name)
        calls = [c for c in ast.walk(funcs[name]) if isinstance(c, ast.Call)]
        todo += [c.func.id for c in calls if isinstance(c.func, ast.Name)]
    attrs = set()
    for name in seen:
        for node in ast.walk(funcs[name]):
            if isinstance(node, ast.Attribute):
                root = node.value
                while isinstance(root, (ast.Attribute, ast.Subscript)):
                    root = root.value
                if getattr(root, "id", None) != "tr":
                    attrs.add(node.attr)
    return attrs


WRAPPERS, HOOK_READS = _wrappers()
# Every attribute a hook reads, checked on real calls below.
CHECKED_ATTRIBUTES = {"cfg", "mode", "values", "shape", "history_frames", "iterations", "n_frames"}


def test_layertrace_declares_wrappers():
    assert len(WRAPPERS) >= 10
    assert {hook for _, hook in WRAPPERS if hook} <= set(HOOK_READS)


@pytest.mark.parametrize("target,hook", WRAPPERS, ids=[t for t, _ in WRAPPERS])
def test_trace_target_resolves_with_hook_arguments(target, hook):
    fn = _resolve(target)
    if target in RETIRED:
        assert fn is None, f"{target} is back; drop it from RETIRED"
        return
    assert callable(fn), f"{target} no longer resolves in rdslab"
    params = inspect.signature(fn).parameters
    missing = HOOK_READS.get(hook, set()) - set(params)
    assert not missing, f"hook {hook} reads {sorted(missing)}, absent from {target}{inspect.signature(fn)}"


def test_hook_attribute_reads_are_all_checked():
    reads = _hook_attributes()
    assert {"mode", "history_frames"} <= reads, "the attribute scan no longer sees the hooks"
    unchecked = reads - CHECKED_ATTRIBUTES
    assert not unchecked, f"hooks read {sorted(unchecked)}; check them on a real call below"


def test_hook_attributes_resolve_on_real_calls():
    grid = make_grid(1.0, 10)
    params = ModelParams(mu=1.0, epsilon=0.5, alpha=1.0, tau=0.1, profiles=NoiseProfiles(1))
    dt, horizon = 0.05, 0.2
    path = sample_wiener(1, -41.0, horizon, dt, seed=1)
    psi = Segment.from_function(grid, params.tau, dt, lambda xi, x: x * np.exp(-x))
    steps = DelaySolver(grid, params, SolverConfig(dt))
    picard = DelaySolver(grid, params, SolverConfig(dt, mode="picard"))
    # _solve_steps tells the two modes apart by args["self"].cfg.mode
    assert steps.cfg.mode == "method-of-steps" and picard.cfg.mode == "picard"
    traj = steps.solve(psi, path, horizon)
    picard_traj, report = picard.picard_solve(psi, path, horizon)
    # _trajectory_steps: frames after the history, from values and history_frames
    for t in (traj, picard_traj):
        assert t.values.shape[0] - 1 - t.history_frames == 4
    # _picard_steps: sweeps from report.iterations
    assert isinstance(report.iterations, int) and report.iterations >= 1
    # _co_norm_frames: frames of the segment passed to segment_co_norm
    seg = traj.terminal_segment
    assert segment_co_norm(seg) > 0.0 and seg.n_frames == 3


def test_solves_reach_noise_series_and_return_trajectories(monkeypatch):
    # The trace expects noise_series calls on the workloads that solve, and
    # _solve_steps reads a Trajectory off solve's result: a solve that skips
    # noise_series, or returns anything else, leaves those runs incorrect.
    targets = {target for target, _ in WRAPPERS}
    assert {"solver.DelaySolver.solve", "solver.DelaySolver.noise_series"} <= targets
    calls = []
    noise_series = DelaySolver.noise_series

    def counted(self, path, horizon):
        calls.append(horizon)
        return noise_series(self, path, horizon)

    monkeypatch.setattr(DelaySolver, "noise_series", counted)
    grid = make_grid(1.0, 10)
    params = ModelParams(mu=1.0, epsilon=0.5, alpha=1.0, tau=0.1, profiles=NoiseProfiles(1))
    dt, horizon = 0.05, 0.2
    path = sample_wiener(1, -41.0, horizon, dt, seed=1)
    psis = [
        Segment.from_function(grid, params.tau, dt, lambda xi, x, a=a: a * x * np.exp(-x))
        for a in (1.0, -2.0)
    ]
    solver = DelaySolver(grid, params, SolverConfig(dt))
    traj = solver.solve(psis[0], path, horizon)
    assert calls == [horizon] and isinstance(traj, Trajectory)
    calls.clear()
    segs = solver.terminal_segments(psis, path, horizon)
    assert calls == [horizon]
    assert len(segs) == 2 and all(isinstance(seg, Segment) for seg in segs)


def _workloads() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


# Each experiment at a size that still reaches every traced layer.
SMALL = {
    "absorbing": {"paths": 1, "segments": 2, "t_max": 2},
    "fixed-point": {"horizon": 3},
    "cocycle": {},
    "convergence-study": {"N": 100},
    "semigroup-bounds": {},
    "kernel-bound": {},
    "picard-contraction": {"N": 50},
    "temperedness": {"paths": 2, "horizon": 20},
    "ou-stats": {"paths": 32},
}

_TRACED_RUN = r"""
import json, sys, traceback
src, perfbench, workload, small = sys.argv[1:5]
sys.path[:0] = [src, perfbench]
import rdslab
import layertrace
from workloads import WORKLOADS
tracer = layertrace.Tracer()
missing = layertrace.install(tracer)
errors = []
for experiment, _ in WORKLOADS[workload]:
    keys = {"experiment": experiment, "seed": 20260814, **json.loads(small)[experiment]}
    text = "".join(f"{key} = {value}\n" for key, value in keys.items())
    try:
        rdslab.run_experiment(rdslab.parse_config(text))
    except Exception:
        errors.append(traceback.format_exc())
print(json.dumps({"rdslab": rdslab.__file__, "errors": errors,
                  "missing_calls": layertrace.missing_calls(tracer, workload, missing)}))
"""


@pytest.mark.parametrize("workload", sorted(_workloads()))
def test_every_expected_wrapper_is_reached(workload):
    # A wrapper that saw no call makes a traced benchmark run incorrect,
    # e.g. when a route moves off a traced method.
    args = [str(ROOT / "src"), str(PERFBENCH), workload, json.dumps(SMALL)]
    done = subprocess.run([sys.executable, "-c", _TRACED_RUN, *args],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout.splitlines()[-1])
    assert Path(record["rdslab"]).is_relative_to(ROOT / "src")
    assert record["errors"] == []
    assert record["missing_calls"] == []
