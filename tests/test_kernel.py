"""Nonlocal dispersal operator: mass, norm bound."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.special import erf, erfc

from rdslab.errors import ParameterError
from rdslab.grid import make_grid
from rdslab.kernel import DispersalKernel, KernelParams, tail_mass


def test_kernel_params_validation():
    with pytest.raises(ParameterError, match="alpha"):
        KernelParams(0.0)
    with pytest.raises(ParameterError, match="alpha"):
        KernelParams(-1.0)


def test_exact_mass_identity():
    # integrating the kernel over the whole half-line gives
    # erf(x / (2 sqrt(alpha))); on [0, L] the truncation removes
    # (1/2)(erfc((L-x)/(2 sqrt(alpha))) - erfc((L+x)/(2 sqrt(alpha)))).
    p = KernelParams(1.0)
    grid = make_grid(20.0, 200)
    op = DispersalKernel(p, grid)
    mass = op.apply_values(np.ones(grid.nodes.size))
    x = grid.nodes
    s = 2.0 * np.sqrt(p.alpha)
    expected = erf(x / s) - 0.5 * (erfc((grid.length - x) / s) - erfc((grid.length + x) / s))
    # product integration reproduces the truncated mass to rounding
    assert np.max(np.abs(mass - expected)) < 1e-12


def test_matrix_nonnegative_rows_below_one():
    for n_cells in (200, 800):
        grid = make_grid(20.0, n_cells)
        for alpha in (0.25, 1.0, 4.0):
            op = DispersalKernel(KernelParams(alpha), grid)
            # entries are differences of Gaussian interval moments; rounding
            # can leave dust of order 1e-14 below zero
            assert np.all(op.matrix >= -1e-13)
            assert np.max(op.apply_values(np.ones(grid.nodes.size))) <= 1.0 + 1e-12
            assert np.all(op.matrix[0] == 0.0)


def test_sup_norm_never_amplified():
    grid = make_grid(20.0, 200)
    rng = np.random.default_rng(42)
    for alpha in (0.25, 1.0, 4.0):
        op = DispersalKernel(KernelParams(alpha), grid)
        for _ in range(20):
            f = rng.uniform(-1.0, 1.0, grid.nodes.size)
            ratio = np.max(np.abs(op.apply_values(f))) / np.max(np.abs(f))
            assert ratio <= 1.0 + 1e-8


def test_unit_input_erf_profile():
    # away from the artificial right edge the image of the constant 1 is
    # the error-function profile; the leak past L bounds the defect.
    grid = make_grid(40.0, 400)
    for alpha in (0.25, 1.0, 4.0):
        p = KernelParams(alpha)
        op = DispersalKernel(p, grid)
        out = op.apply_values(np.ones(grid.nodes.size))
        inner = grid.nodes <= 20.0
        exact = erf(grid.nodes[inner] / (2.0 * np.sqrt(alpha)))
        assert np.max(np.abs(out[inner] - exact)) <= 1e-6


def test_tail_mass_quantifies_truncation():
    grid = make_grid(20.0, 200)
    p = KernelParams(4.0)
    # at x = L/2 the neglected mass is (1/2)[erfc((L-x)/(2 sqrt a)) - erfc((L+x)/(2 sqrt a))]
    x = 10.0
    s = 2.0 * np.sqrt(p.alpha)
    expected = 0.5 * (erfc((20.0 - x) / s) - erfc((20.0 + x) / s))
    assert tail_mass(p, grid) == pytest.approx(expected, rel=1e-10)
    assert tail_mass(p, grid) > 1e-6  # why the wide-kernel erf check needs L = 40
