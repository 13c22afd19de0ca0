"""Outside-in tracing of the rdslab layers, installed from the benchmark.

Nothing under ``src/`` knows about this module.  ``install`` replaces each
public function in ``WRAPPERS`` at every name an rdslab module binds it
under (modules bind the names they import, so ``kernel.operator_matrix``
and ``semigroup.operator_matrix`` are separate lookups), and each method
on its class.  A span records name, start, end and the span that caused
it; a layer's self time is its busy time minus its child spans.  Hot,
tiny calls get a counter (``count``) or a counter and a busy-time sum
(``timed``) but no span, so their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from workloads import EXPERIMENTS


@dataclass
class Stat:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    leaf_calls: int = 0  # calls that opened no child span


class Tracer:
    """Span stack, per-name statistics and the finished spans, in memory."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counts: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)
        self.layer_busy: dict[str, float] = defaultdict(float)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []  # (id, parent id or -1, name, start, end)
        self._stack: list[list] = []  # [id, name, layer, start, child time, child count]
        self._next_id = 0

    def enter(self, name: str, layer: str) -> list:
        frame = [self._next_id, name, layer, time.perf_counter(), 0.0, 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, layer, start, child_time, child_count = frame
        duration = end - start
        stat = self.stats[name]
        stat.calls += 1
        stat.busy += duration
        stat.self_time += duration - child_time
        stat.leaf_calls += child_count == 0
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[4] += duration
            parent[5] += 1
        if parent is None or parent[2] != layer:
            self.layer_busy[layer] += duration
        self.layer_self[layer] += duration - child_time
        self.spans.append((span_id, parent[0] if parent else -1, name, start, end))

    @contextmanager
    def span(self, name: str, layer: str):
        frame = self.enter(name, layer)
        try:
            yield
        finally:
            self.exit(frame)


# -- per-call hooks: work counted where it happens ---------------------------


def _quadrature_key(tr: Tracer, args, result) -> None:
    tr.keys["quadrature"].add(
        (len(args["out_x"]), len(args["in_nodes"]), float(args["a"]), args["kind"], args["order"])
    )


def _ou_series_times(tr: Tracer, args, result) -> None:
    tr.counts["noise.ou_series_times"] += len(args["times"])


def _trajectory_steps(traj) -> int:
    return traj.values.shape[0] - 1 - traj.history_frames


def _solve_steps(tr: Tracer, args, result) -> None:
    if args["self"].cfg.mode != "picard":  # picard_solve's own hook counts it
        tr.counts["solver.steps"] += _trajectory_steps(result)


def _picard_steps(tr: Tracer, args, result) -> None:
    traj, report = result
    tr.counts["solver.steps"] += report.iterations * _trajectory_steps(traj)
    tr.counts["solver.picard_sweeps"] += report.iterations


def _co_norm_frames(tr: Tracer, args, result) -> None:
    tr.counts["grid.co_norm_frames"] += args["s"].n_frames


@dataclass(frozen=True)
class Wrapper:
    target: str  # "<module>.<function>" or "<module>.<Class>.<method>"
    layer: str
    kind: str = "span"  # "span", "timed" (count + busy, no span) or "count"
    hook: object = None  # hook(tracer, bound arguments, result)
    expect: tuple = ()  # workloads on which it must be called at least once


_ALL_BUT_NOISE = ("pullback-ensemble", "operator-assembly", "restart-chain")

WRAPPERS = (
    Wrapper("quadrature.operator_matrix", "quadrature", hook=_quadrature_key, expect=_ALL_BUT_NOISE),
    Wrapper("kernel.DispersalKernel.__init__", "kernel", expect=_ALL_BUT_NOISE),
    Wrapper("kernel.DispersalKernel.apply_values", "kernel", kind="timed", expect=_ALL_BUT_NOISE),
    Wrapper("semigroup.DirichletHeatSemigroup.operator", "semigroup", expect=_ALL_BUT_NOISE),
    Wrapper("semigroup.DirichletHeatSemigroup.check_bounds", "semigroup", expect=("operator-assembly",)),
    Wrapper("noise.sample_wiener", "noise", expect=("noise-paths", "pullback-ensemble", "restart-chain")),
    Wrapper("noise.ou_series", "noise", hook=_ou_series_times, expect=("noise-paths", "pullback-ensemble", "restart-chain")),
    Wrapper("noise.ou_vector", "noise", expect=("noise-paths",)),
    Wrapper("noise.WienerPath.index_of", "noise", kind="count", expect=("noise-paths", "pullback-ensemble", "restart-chain")),
    Wrapper("solver.DelaySolver.__init__", "solver", expect=_ALL_BUT_NOISE),
    Wrapper("solver.DelaySolver.solve", "solver", hook=_solve_steps, expect=_ALL_BUT_NOISE),
    Wrapper("solver.DelaySolver.picard_solve", "solver", hook=_picard_steps, expect=("operator-assembly",)),
    Wrapper("solver.DelaySolver.noise_series", "solver", expect=("pullback-ensemble", "restart-chain")),
    Wrapper("grid.segment_co_norm", "grid", hook=_co_norm_frames, expect=("pullback-ensemble", "restart-chain")),
    Wrapper("pullback.pullback_conjugated", "pullback", expect=("pullback-ensemble",)),
    Wrapper("pullback.pullback_state", "pullback", expect=("pullback-ensemble",)),
    Wrapper("pullback.advance_state", "pullback", expect=("pullback-ensemble",)),
    Wrapper("pullback.derived_constants", "pullback", expect=("pullback-ensemble",)),
    Wrapper("pullback.fixed_point_estimate", "pullback", expect=("pullback-ensemble",)),
    Wrapper("pullback.cocycle_residual", "pullback", expect=("restart-chain",)),
)


def _wrap(tr: Tracer, w: Wrapper, fn):
    name = w.target
    if w.kind == "count":
        stat = tr.stats[name]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return counted
    if w.kind == "timed":
        stat = tr.stats[name]

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stat.calls += 1
                stat.busy += time.perf_counter() - start

        return timed
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        frame = tr.enter(name, w.layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.exit(frame)
        if w.hook is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            w.hook(tr, bound.arguments, result)
        return result

    return spanned


def install(tr: Tracer) -> list[str]:
    """Install every wrapper whose target exists; return the missing targets."""
    modules = [m for n, m in sys.modules.items() if n == "rdslab" or n.startswith("rdslab.")]
    missing = []
    for w in WRAPPERS:
        module_name, *owner, attr = w.target.split(".")
        holder = sys.modules.get("rdslab." + module_name)
        for part in owner:
            holder = getattr(holder, part, None)
        original = getattr(holder, attr, None) if holder is not None else None
        if original is None:
            missing.append(w.target)
            continue
        wrapped = _wrap(tr, w, original)
        if owner:
            setattr(holder, attr, wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    return missing


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """The per-layer metrics the traced run reports (units in BENCHMARK.json).

    Every metric is reported on every workload, as the benchmark contract
    asks; on a workload that bypasses a layer its counts, times and ratios
    read 0, which is the prediction that the layer does not move there.
    """
    s, c = tr.stats, tr.counts
    quad = s["quadrature.operator_matrix"]
    operator = s["semigroup.DirichletHeatSemigroup.operator"]
    ou = s["noise.ou_series"]
    solve = s["solver.DelaySolver.solve"]
    picard = s["solver.DelaySolver.picard_solve"]
    co_norm = s["grid.segment_co_norm"]
    solve_self = solve.self_time + picard.self_time
    out = {
        "quadrature.calls": quad.calls,
        "quadrature.distinct_ratio": _ratio(len(tr.keys["quadrature"]), quad.calls),
        "quadrature.busy_s": tr.layer_busy["quadrature"],
        "kernel.builds": s["kernel.DispersalKernel.__init__"].calls,
        "kernel.apply_calls": s["kernel.DispersalKernel.apply_values"].calls,
        "kernel.apply_busy_s": s["kernel.DispersalKernel.apply_values"].busy,
        "semigroup.operator_calls": operator.calls,
        "semigroup.cache_hit_ratio": _ratio(operator.leaf_calls, operator.calls),
        "semigroup.check_bounds_busy_s": s["semigroup.DirichletHeatSemigroup.check_bounds"].busy,
        "noise.sample_wiener_calls": s["noise.sample_wiener"].calls,
        "noise.sample_wiener_busy_s": s["noise.sample_wiener"].busy,
        "noise.ou_series_calls": ou.calls,
        "noise.ou_series_times": c["noise.ou_series_times"],
        "noise.ou_series_busy_s": ou.busy,
        "noise.ou_series_us_per_time": 1e6 * _ratio(ou.busy, c["noise.ou_series_times"]),
        "noise.ou_vector_calls": s["noise.ou_vector"].calls,
        "noise.ou_vector_busy_s": s["noise.ou_vector"].busy,
        "noise.index_of_calls": s["noise.WienerPath.index_of"].calls,
        "solver.builds": s["solver.DelaySolver.__init__"].calls,
        "solver.build_busy_s": s["solver.DelaySolver.__init__"].busy,
        "solver.solve_calls": solve.calls + picard.calls,
        "solver.steps": c["solver.steps"],
        "solver.solve_self_s": solve_self,
        "solver.step_us": 1e6 * _ratio(solve_self, c["solver.steps"]),
        "solver.picard_sweeps": c["solver.picard_sweeps"],
        "solver.noise_series_busy_s": s["solver.DelaySolver.noise_series"].busy,
        "grid.co_norm_calls": co_norm.calls,
        "grid.co_norm_frames": c["grid.co_norm_frames"],
        "grid.co_norm_busy_s": co_norm.busy,
        "pullback.runs": s["pullback.pullback_conjugated"].calls + s["pullback.pullback_state"].calls,
        "pullback.busy_s": tr.layer_busy["pullback"],
        "pullback.self_s": tr.layer_self["pullback"],
    }
    for experiment in EXPERIMENTS:
        out[f"experiments.{experiment}.wall_s"] = s[f"experiments.{experiment}"].busy
    out["experiments.self_s"] = tr.layer_self["experiments"]
    return out


def missing_calls(tr: Tracer, workload: str, missing_targets: list[str]) -> list[str]:
    """Installed wrappers that saw no call on a workload they should exercise."""
    return [
        w.target
        for w in WRAPPERS
        if workload in w.expect and w.target not in missing_targets and tr.stats[w.target].calls == 0
    ]
