"""Gaussian product-integration matrices: full-precision oracle, lattice
preconditions, exact zeros."""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np
import pytest

from rdslab.errors import ParameterError
from rdslab.grid import make_grid
from rdslab.quadrature import _ndtr_pair, _spline_solve, erf, operator_matrix
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
    semigroup = DirichletHeatSemigroup(make_grid(20.0, n_cells), mu=1.0)
    for t in (0.005, 0.01, 1.0):
        assert np.all(semigroup.operator(t, "spline")[0] == 0.0)


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


def test_erf_is_scipy_bit_for_bit():
    special = pytest.importorskip("scipy.special")
    x = _special_grid()
    assert np.array_equal(_bits(erf(x)), _bits(special.erf(x)))
    assert _bits(erf(-0.0)) == _bits(-0.0)


def test_ndtr_pair_is_scipy_bit_for_bit():
    special = pytest.importorskip("scipy.special")
    z = _special_grid()
    lower, upper = _ndtr_pair(z)
    assert np.array_equal(_bits(lower), _bits(special.ndtr(z)))
    assert np.array_equal(_bits(upper), _bits(special.ndtr(-z)))


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
