"""Gaussian product-integration matrices: full-precision oracle, lattice
preconditions, exact zeros."""

from __future__ import annotations

import math
import tracemalloc
from functools import lru_cache
from math import comb

import numpy as np
import pytest

import rdslab.quadrature as quadrature
from rdslab.errors import ParameterError
from rdslab.grid import make_grid
from rdslab.quadrature import (
    _interval_moments,
    _ndtr_pair,
    _spline_solve,
    erf,
    flush_subnormal,
    gaussian_pdf,
    operator_matrix,
)
from rdslab.semigroup import DirichletHeatSemigroup


def oracle_image_pair(length: float, n_cells: int, a: float, order: str) -> np.ndarray:
    """Image-pair matrix on the grid's own nodes, assembled in mpmath at 40
    digits: the cell moments, the spline system and its solve."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        dx = mp.mpf(length) / n_cells
        y = [j * dx for j in range(n_cells + 1)]
        s2 = 2 * mp.mpf(a)  # variance of G_a
        norm = 1 / mp.sqrt(2 * mp.pi * s2)
        pdf = lru_cache(None)(lambda u: norm * mp.exp(-u * u / (2 * s2)))
        cdf = lru_cache(None)(lambda u: mp.erf(u / mp.sqrt(2 * s2)) / 2)

        def moments(lo, hi):
            # int_lo^hi (u - lo)^k N(0, s2)(u) du for k < 4, by the
            # recurrence I_k = s2 (lo^{k-1} pdf(lo) - hi^{k-1} pdf(hi)) + (k-1) s2 I_{k-2}
            pa, pb = pdf(lo), pdf(hi)
            i = [cdf(hi) - cdf(lo), s2 * (pa - pb)]
            i.append(s2 * i[0] + s2 * (lo * pa - hi * pb))
            i.append(s2 * (lo * lo * pa - hi * hi * pb) + 2 * s2 * i[1])
            return [sum(comb(k, m) * (-lo) ** (k - m) * i[m] for m in range(k + 1)) for k in range(4)]

        n = n_cells + 1
        w = [[mp.mpf(0)] * n for _ in range(n)]
        g = [[mp.mpf(0)] * n for _ in range(n)]  # weights of the spline second derivatives
        for r, x in enumerate(y):
            for j in range(n_cells):
                direct = moments(y[j] - x, y[j + 1] - x)
                image = moments(y[j] + x, y[j + 1] + x)
                m = [p - q for p, q in zip(direct, image)]
                w[r][j] += m[0] - m[1] / dx
                w[r][j + 1] += m[1] / dx
                g[r][j] += -dx / 3 * m[1] + m[2] / 2 - m[3] / (6 * dx)
                g[r][j + 1] += -dx / 6 * m[1] + m[3] / (6 * dx)
        out = mp.matrix(w)
        if order == "spline":
            # natural spline: second derivatives at the interior nodes are A^{-1} R f
            k = n_cells - 1
            A = mp.matrix(k, k)
            R = mp.matrix(k, n)
            for i in range(k):
                A[i, i] = 2 * dx / 3
                if i > 0:
                    A[i, i - 1] = A[i - 1, i] = dx / 6
                R[i, i], R[i, i + 1], R[i, i + 2] = 1 / dx, -2 / dx, 1 / dx
            interior = mp.matrix([row[1:-1] for row in g])
            out += interior * (A**-1 * R)
        return np.array(out.tolist(), dtype=float)


# relative max-norm error against the oracle, pinned at the error measured
# for the dense assembly that preceded the table form, rounded up to one
# significant figure; the cubic moments' binomial expansion about the
# kernel centre, not the assembly, sets the spline figures
ORACLE_BOUNDS = [
    (0.0025, "linear", 2e-15),
    (0.04, "linear", 2e-14),
    (1.0, "linear", 3e-13),
    (5.0, "linear", 6e-13),
    (0.0025, "spline", 2e-15),
    (0.04, "spline", 4e-12),
    (1.0, "spline", 4e-10),
    (5.0, "spline", 2e-9),
]


@pytest.mark.parametrize("a, order, bound", ORACLE_BOUNDS)
def test_matches_full_precision_oracle(a, order, bound):
    grid = make_grid(4.0, 24)
    ref = oracle_image_pair(4.0, 24, a, order)
    w = operator_matrix(grid.nodes, grid.nodes, a, kind="image_pair", order=order)
    assert np.max(np.abs(w - ref)) / np.max(np.abs(ref)) <= bound


def test_off_lattice_output_point_is_rejected_by_value():
    nodes = make_grid(2.0, 20).nodes
    with pytest.raises(ParameterError, match=r"offset of output point 0\.35 is off the lattice"):
        operator_matrix(np.array([0.2, 0.35]), nodes, 0.1)


def test_non_uniform_input_nodes_are_rejected_by_value():
    nodes = make_grid(2.0, 20).nodes.copy()
    nodes[7] += 0.03
    with pytest.raises(ParameterError, match=r"offset of input node 0\.73"):
        operator_matrix(nodes, nodes, 0.1)
    # on the lattice but out of order: every coordinate is a whole step
    swapped = np.array([0.0, 0.2, 0.1, 0.3])
    with pytest.raises(ParameterError, match=r"node 0\.2 is not"):
        operator_matrix(swapped, swapped, 0.1)


@pytest.mark.parametrize("order", ["linear", "spline"])
def test_each_row_depends_only_on_its_output_point(order):
    # every row is a window of the same offset tables, so assembling a
    # subset of the rows, or points past either end of the nodes, gives
    # those rows bit for bit
    grid = make_grid(5.0, 50)
    full = operator_matrix(grid.nodes, grid.nodes, 0.3, order=order)
    pick = [40, 3, 17, 0]
    assert np.array_equal(operator_matrix(grid.nodes[pick], grid.nodes, 0.3, order=order), full[pick])
    wide = np.concatenate([grid.nodes[:5] - 0.5, grid.nodes, grid.nodes[-5:] + 0.5])
    assert np.array_equal(operator_matrix(wide, grid.nodes, 0.3, order=order)[5:-5], full)


def test_image_pair_on_nodes_away_from_zero():
    # nodes starting at 10 dx integrate the same cells as the full grid
    # except the first, so the linear weights of the later nodes agree
    grid = make_grid(5.0, 50)
    for a in (0.01, 0.3, 2.0):
        full = operator_matrix(grid.nodes, grid.nodes, a)
        tail = operator_matrix(grid.nodes, grid.nodes[10:], a)
        assert np.max(np.abs(tail[:, 1:] - full[:, 11:])) <= 1e-12 * np.max(full)


@pytest.mark.parametrize("n_cells", [200, 800])
def test_spline_propagator_row_zero_is_exactly_zero(n_cells):
    # at x = 0 the direct and image terms read the same table entries
    semigroup = DirichletHeatSemigroup(make_grid(20.0, n_cells))
    for t in (0.005, 0.01, 1.0):
        assert np.all(semigroup.operator(t, 1.0, "spline")[0] == 0.0)


TINY = np.finfo(float).tiny


def _subnormal_count(w: np.ndarray) -> int:
    return int(np.count_nonzero((w != 0.0) & (np.abs(w) < TINY)))


@pytest.mark.parametrize("n_cells", [200, 800])
@pytest.mark.parametrize("a", [0.001, 0.005, 1.0])
@pytest.mark.parametrize("order", ["linear", "spline"])
def test_no_operator_matrix_has_a_subnormal_entry(n_cells, a, order):
    # a subnormal operand costs the BLAS kernel a microcode assist; at
    # N = 800 the unflushed spline propagators carry thousands of them
    grid = make_grid(20.0, n_cells)
    assert _subnormal_count(operator_matrix(grid.nodes, grid.nodes, a, order=order)) == 0
    semigroup = DirichletHeatSemigroup(grid)
    assert _subnormal_count(semigroup.operator(a, 1.0, order)) == 0


def _property_cases(seed: int, count: int):
    """Random (L, N, a) with dx / sigma log-uniform over [0.005, 20]: both
    sides of dx / sigma = 2, narrow kernels included."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        length = float(rng.uniform(1.0, 40.0))
        n_cells = int(rng.integers(3, 401))
        sigma = length / n_cells / float(np.exp(rng.uniform(np.log(0.005), np.log(20.0))))
        yield length, n_cells, sigma * sigma / 2.0


# narrow kernels (dx / sigma = 1.70 and 3.00) whose largest row sum is
# exactly 1 + 2^-52
ONE_ULP_OVER = [(20.0, 111, 0.00562), (20.0, 200, 0.000556)]


def test_operator_matrix_properties_over_random_grids_and_widths():
    ratios = []
    for length, n_cells, a in [*_property_cases(seed=20260814, count=80), *ONE_ULP_OVER]:
        grid = make_grid(length, n_cells)
        case = (length, n_cells, a)
        w = operator_matrix(grid.nodes, grid.nodes, a, order="linear")
        assert np.all(w >= 0.0), case
        assert np.all(w[0] == 0.0), case
        assert _subnormal_count(w) == 0, case
        # a row sum is the truncated mass rounded: at most 1 up to one ulp
        assert max(math.fsum(row) for row in w) <= 1.0 + 2.0 ** -52, case
        s = operator_matrix(grid.nodes, grid.nodes, a, order="spline")
        assert np.all(s[0] == 0.0), case
        assert _subnormal_count(s) == 0, case
        ratios.append(grid.dx / math.sqrt(2.0 * a))
    assert min(ratios) < 0.05 and max(ratios) > 5.0  # both sides of the dx / sigma = 2 switch


def test_propagator_is_flushed_after_its_killing_factor():
    # at N = 1600, a = 0.005 the e^{-mu t} scaling takes two normal
    # entries of the spline matrix below the smallest normal double
    grid = make_grid(20.0, 1600)
    w = DirichletHeatSemigroup(grid).operator(0.005, 1.0, "spline")
    assert _subnormal_count(w) == 0


def test_flush_zeroes_exactly_the_entries_below_the_smallest_normal():
    special = [TINY, -TINY, np.nextafter(TINY, 0.0), -np.nextafter(TINY, 0.0), 5e-324, -5e-324,
               0.0, -0.0, 1.0, -np.inf, np.nan]
    rng = np.random.default_rng(3)
    w = np.concatenate([special, rng.choice(special, 3 * 64 * 11 - len(special))]).reshape(-1, 11)
    expected = np.where(np.abs(w) < TINY, 0.0, w)
    assert flush_subnormal(w) is w
    assert np.array_equal(_bits(w), _bits(expected))


@pytest.mark.parametrize("order, bound", [("spline", 2.5), ("linear", 1.5)])
def test_assembly_holds_few_matrices(order, bound):
    # the image term is subtracted, the spline weights solved, the h
    # updates and the flush applied a row block at a time
    grid = make_grid(20.0, 800)
    operator_matrix(grid.nodes, grid.nodes, 0.01, order=order)  # warm any lazy numpy state
    tracemalloc.start()
    try:
        w = operator_matrix(grid.nodes, grid.nodes, 0.01, order=order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * w.nbytes


def _strided_spline_assembly(nodes: np.ndarray, a: float) -> np.ndarray:
    """The image-pair spline matrix from the nodes to themselves, with the
    spline update reading h through its transposed view, (A^{-1} G^T)^T, as
    the assembly did before h was copied to memory order."""
    n, dx = nodes.size, (nodes[-1] - nodes[0]) / (nodes.size - 1)
    p = np.arange(n)
    layout = [(0.0, 1 - n, n - 1 - p), (2.0 * nodes[0], 0, p)]
    edges = [origin + np.arange(first - 1, first + int(starts.max()) + n + 1) * dx
             for origin, first, starts in layout]
    tables = quadrature._cell_weights(np.concatenate(edges), dx, np.sqrt(2.0 * a))
    seam = edges[0].size
    direct = quadrature._Term(layout[0][2], n, *(t[:seam - 1] for t in tables))
    image = quadrature._Term(layout[1][2], n, *(t[seam:] for t in tables))
    blocks = [slice(i, i + quadrature._ROW_BLOCK) for i in range(0, n, quadrature._ROW_BLOCK)]
    g = direct.curvature(slice(None))
    for rows in blocks:
        g[rows] -= image.curvature(rows)
    h = _spline_solve(np.ascontiguousarray(g.T), dx).T
    w = direct.linear(slice(None))
    for rows in blocks:
        w[rows] -= image.linear(rows)
        w[rows, :-2] += h[rows]
        w[rows, 1:-1] -= 2.0 * h[rows]
        w[rows, 2:] += h[rows]
        flush_subnormal(w[rows])
    return w


@pytest.mark.parametrize("a", [0.005, 0.02, 1.0])
def test_spline_update_in_memory_order_keeps_the_strided_bits(a):
    # the elementwise operations are the same; only the layout of h moved
    grid = make_grid(20.0, 800)
    w = operator_matrix(grid.nodes, grid.nodes, a, order="spline")
    assert np.array_equal(_bits(w), _bits(_strided_spline_assembly(grid.nodes, a)))


def _i0_per_edge(sigma: float, edges: np.ndarray) -> np.ndarray:
    """I_0 = P(a <= sigma Z <= b) over each interval, edge by edge in Python:
    Q(a/sigma) - Q(b/sigma) with Q(z) = erfc(z / sqrt 2) / 2 where the
    interval leans right, P(b/sigma) - P(a/sigma) with P(z) = Q(-z) otherwise."""
    half, sigma = math.sqrt(0.5), float(sigma)
    out = []
    for a, b in zip(edges[:-1].tolist(), edges[1:].tolist()):
        za, zb = a / sigma, b / sigma
        if za + zb > 0:
            out.append(0.5 * math.erfc(za * half) - 0.5 * math.erfc(zb * half))
        else:
            out.append(0.5 * math.erfc(-(zb * half)) - 0.5 * math.erfc(-(za * half)))
    return np.array(out)


# edges from the kernel centre for an N = 800 spline matrix at L = 20, a = 0.005,
# and the signed zeros and +-1e-300 around the centre
_MOMENT_SIGMA = np.sqrt(2.0 * 0.005)
_LATTICE = np.arange(-801, 803) * (20.0 / 800)
_SIGNED_EDGES = np.array([-60.0, -1e-300, -0.0, 0.0, 1e-300, 60.0]) * _MOMENT_SIGMA


def test_interval_moments_are_one_ndtr_pair_per_edge_bit_for_bit():
    # I_0 against a per-edge math.erfc loop: each tail from one libm call
    for edges in (_LATTICE, np.concatenate([_LATTICE, np.arange(-1, 1602) * (20.0 / 800)]),
                  1.5 + _LATTICE, _SIGNED_EDGES):
        got = _interval_moments(_MOMENT_SIGMA, edges)[0]
        assert np.array_equal(_bits(got), _bits(_i0_per_edge(_MOMENT_SIGMA, edges)))


def test_interval_moments_match_mpmath_at_40_digits():
    # Forward error of the closed forms, with u = 2^-52 and z = max(|a|, |b|) / sigma:
    # - a tail erfc(x) / 2 at x = (e / sigma) sqrt(1/2) (three roundings) takes
    #   libm's 5 ulp and erfc's condition number, at most z^2 + 1, times them;
    # - pdf(e) takes numpy's 1 ulp exp and the exponent's z^2 / 2 condition
    #   number times its three roundings, and three more for its prefactor;
    # - each moment adds a few roundings of its own sums and products.
    # So |got - exact| <= (2 z^2 + 16) u S_k, where S_k sums the magnitudes of
    # the terms of moment k's closed form (I_0's tails taken on the side the
    # interval leans away from).  Where S_k is below the smallest normal
    # double a result has no relative accuracy, so it is not compared.
    mp = pytest.importorskip("mpmath")
    sigma, tiny = _MOMENT_SIGMA, np.finfo(float).tiny
    for edges in (_LATTICE, _SIGNED_EDGES):
        got = _interval_moments(sigma, edges)
        with mp.workdps(40):
            s, s2 = mp.mpf(float(sigma)), mp.mpf(float(sigma)) ** 2
            pdf = [mp.exp(-mp.mpf(e) ** 2 / (2 * s2)) / (s * mp.sqrt(2 * mp.pi)) for e in edges.tolist()]
            # Q(e / sigma) and P(e / sigma) = Q(-e / sigma), each from its own erfc
            upper = [mp.erfc(mp.mpf(e) / (s * mp.sqrt(2))) / 2 for e in edges.tolist()]
            lower = [mp.erfc(-mp.mpf(e) / (s * mp.sqrt(2))) / 2 for e in edges.tolist()]
            for j, (a, b) in enumerate(zip(edges[:-1].tolist(), edges[1:].tolist())):
                pa, pb, a_, b_ = pdf[j], pdf[j + 1], mp.mpf(a), mp.mpf(b)
                ta, tb = (upper[j], upper[j + 1]) if a + b > 0 else (lower[j + 1], lower[j])
                i0, i1 = ta - tb, s2 * (pa - pb)
                exact = [i0, i1, s2 * i0 + s2 * (a_ * pa - b_ * pb),
                         s2 * (a_ * a_ * pa - b_ * b_ * pb) + 2 * s2 * i1]
                s0, s1 = abs(ta) + abs(tb), s2 * (pa + pb)
                scale = [s0, s1, s2 * s0 + s2 * (abs(a_) * pa + abs(b_) * pb),
                         s2 * (a_ * a_ * pa + b_ * b_ * pb) + 2 * s2 * s1]
                z = max(abs(a), abs(b)) / float(sigma)
                for k in range(4):
                    if scale[k] < tiny:
                        continue
                    err = abs(mp.mpf(float(got[k][j])) - exact[k])
                    assert err <= (2 * z * z + 16) * 2.0 ** -52 * scale[k], (k, a, b)


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


def _special_grid() -> np.ndarray:
    """Dense arguments over |x| <= 60 with each cephes branch point of erf
    and erfc (|x| = sqrt(1/2), 1, 8, sqrt(MAXLOG)) in erf's argument and in
    ndtr's (sqrt(2) times as large), their neighbours, +-0 and 1e-300."""
    edges = np.array([np.sqrt(0.5), 1.0, 8.0, np.sqrt(7.09782712893383996843e2)])
    edges = np.concatenate([edges, np.sqrt(2.0) * edges, [0.0, 1e-300, 5e-324, 60.0]])
    near = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])
    rng = np.random.default_rng(5)
    x = np.concatenate([near, np.linspace(0.0, 60.0, 200_001), rng.exponential(3.0, 100_000),
                        np.geomspace(1e-300, 1.0, 20_000)])
    return np.concatenate([x, -x])


# Each oracle bounds the gap to scipy.special (cephes) by the sum of the two
# sides' errors against the exact value, relative, with an ulp taken as
# 2^-52 of the value:
# - libm states erf within 1 ulp and erfc within 5 (glibc, x86_64);
# - cephes states erf within 3.7e-16 on |x| <= 1 and erfc within 5.7e-14 on
#   [0, 26.6] (peak relative, its ndtr.c); beyond |x| = 1 its erf is
#   1 - erfc(|x|), erfc's error scaled by erfc / erf plus one rounding, and
#   its ndtr, within erfc's larger bound, rounds once more (0.5 + 0.5 erf or
#   1 - 0.5 erfc);
# - ndtr evaluates erfc at x = z sqrt(1/2) rounded to double, two roundings
#   on each side, and erfc's relative condition number, below 2x^2 + 1 =
#   z^2 + 1, turns them into (z^2 + 1) 2^-52.
# A result below the smallest normal double has no relative accuracy
# (cephes returns 0 once x^2 exceeds MAXLOG), so only normal ones are compared.
_ULP = 2.0 ** -52
_CEPHES_ERF, _CEPHES_ERFC = 3.7e-16, 5.7e-14


def _assert_within(got, ref, rel):
    scale = np.maximum(np.abs(got), np.abs(ref))
    normal = scale >= np.finfo(float).tiny
    assert np.all(np.abs(got - ref)[normal] <= (rel * scale)[normal])


def test_erf_is_within_the_stated_errors_of_libm_and_cephes():
    special = pytest.importorskip("scipy.special")
    x = _special_grid()
    ref = special.erf(x)
    cephes = np.full(x.shape, _CEPHES_ERF)
    big = np.abs(x) > 1.0
    cephes[big] = _CEPHES_ERFC * (1.0 - np.abs(ref[big])) / np.abs(ref[big]) + _ULP
    _assert_within(erf(x), ref, _ULP + cephes)
    assert _bits(erf(-0.0)) == _bits(-0.0)


def test_ndtr_pair_is_within_the_stated_errors_of_libm_and_cephes():
    special = pytest.importorskip("scipy.special")
    z = _special_grid()
    rel = 2.0 * (z * z + 1.0) * _ULP + 5.0 * _ULP + _CEPHES_ERFC + _ULP
    lower, upper = _ndtr_pair(z)
    _assert_within(lower, special.ndtr(z), rel)
    _assert_within(upper, special.ndtr(-z), rel)


@pytest.mark.parametrize("n", [1, 2, 199, 799])
@pytest.mark.parametrize("rhs", [1, 2, 7])
def test_spline_solve_is_solve_banded_bit_for_bit(n, rhs):
    linalg = pytest.importorskip("scipy.linalg")
    dx = 20.0 / (n + 1)
    b = np.random.default_rng(n + rhs).normal(size=(n, rhs))
    ab = np.empty((3, n))
    ab[0], ab[1], ab[2] = dx / 6.0, 2.0 * dx / 3.0, dx / 6.0
    expected = linalg.solve_banded((1, 1), ab, b, check_finite=False)
    assert np.array_equal(_bits(_spline_solve(b.copy(), dx)), _bits(expected))
