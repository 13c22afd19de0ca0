"""Fixed-size probes of single layers, each timed after one warm-up call.

The sizes are those the default experiments use, so a probe moves with
the layer it names and with nothing else: dispersal (linear) and step
propagator (spline) assembly at N = 200 and 800, one absorbing-config
trajectory, the temperedness OU series over 2001 times and its path,
and the co-norm of an absorbing history segment (11 frames, N = 200).
"""

from __future__ import annotations

import statistics
import time

MIN_REPEATS = 3
MAX_REPEATS = 50
MIN_PROBE_S = 0.3


def _median_s(fn) -> float:
    """Median wall time of fn() after one warm-up call."""
    fn()
    samples = []
    started = time.perf_counter()
    while len(samples) < MAX_REPEATS and (
        len(samples) < MIN_REPEATS or time.perf_counter() - started < MIN_PROBE_S
    ):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def run_probes(rdslab, seed: int) -> dict[str, float]:
    import numpy as np
    from rdslab.noise import OUParams, default_s_cut
    from rdslab.quadrature import operator_matrix

    out = {}
    for n in (200, 800):
        nodes = rdslab.make_grid(20.0, n).nodes
        out[f"quadrature.linear_n{n}_ms"] = 1e3 * _median_s(
            lambda: operator_matrix(nodes, nodes, 1.0, kind="image_pair", order="linear")
        )
        out[f"quadrature.spline_n{n}_ms"] = 1e3 * _median_s(
            lambda: operator_matrix(nodes, nodes, 0.01, kind="image_pair", order="spline")
        )

    dt_path, horizon = 0.1, 200.0
    s_cut = default_s_cut(1.0, dt_path)
    path = rdslab.sample_wiener(1, -horizon - s_cut, 0.0, dt_path, seed)
    times = -dt_path * np.arange(int(round(horizon / dt_path)) + 1)
    oup = OUParams(1.0, s_cut)
    out["noise.ou_series_2001_ms"] = 1e3 * _median_s(lambda: rdslab.ou_series(path, oup, times))
    out["noise.sample_wiener_ms"] = 1e3 * _median_s(
        lambda: rdslab.sample_wiener(2, -horizon - s_cut, 0.0, dt_path, seed)
    )

    spec = rdslab.parse_config(f"experiment = absorbing\nseed = {seed}\n")
    grid, params = spec.grid(), spec.model_params()
    dt, t_run = spec["dt"], 10.0
    solver = rdslab.DelaySolver(grid, params, rdslab.SolverConfig(dt))
    long_path = rdslab.sample_wiener(
        params.m, -(t_run + params.tau + solver.ou_params.s_cut + 1.0), 0.0, dt, seed
    )
    psi = rdslab.Segment.from_function(
        grid, params.tau, dt, lambda xi, x: x * np.exp(-x) * (1.0 + 0.5 * xi)
    )
    n_steps = int(round(t_run / dt))
    out["solver.step_us_n200"] = 1e6 / n_steps * _median_s(
        lambda: solver.solve(psi, long_path.shift(-t_run), t_run)
    )
    out["grid.segment_co_norm_us"] = 1e6 * _median_s(lambda: rdslab.segment_co_norm(psi))
    return out
