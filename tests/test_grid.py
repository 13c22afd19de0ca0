"""Lattice, field, segment, and norm mechanics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from rdslab.errors import ParameterError
from rdslab.grid import (
    Field,
    Segment,
    default_n_max,
    make_grid,
    segment_co_norm,
    sup_norm,
)


def test_make_grid_basic():
    grid = make_grid(20.0, 200)
    assert grid.length == 20.0
    assert grid.n_cells == 200
    assert grid.dx == pytest.approx(0.1)
    assert grid.nodes.shape == (201,)
    assert grid.nodes[0] == 0.0
    assert grid.nodes[-1] == pytest.approx(20.0)


def test_grids_built_alike_compare_equal():
    # the nodes follow from L and N, so equality never compares two arrays
    assert make_grid(2.0, 4) == make_grid(2.0, 4)
    assert make_grid(2.0, 4) != make_grid(2.0, 5)
    assert hash(make_grid(2.0, 4)) == hash(make_grid(2.0, 4))


def test_make_grid_rejects_bad_inputs():
    with pytest.raises(ParameterError, match="L"):
        make_grid(-1.0, 100)
    with pytest.raises(ParameterError, match="N"):
        make_grid(10.0, 0)


def test_field_validation():
    grid = make_grid(10.0, 100)
    with pytest.raises(ParameterError, match="values"):
        Field(grid, np.zeros(5))
    with pytest.raises(ParameterError, match="finite"):
        Field(grid, np.full(101, np.nan))


def test_field_dirichlet_flag():
    grid = make_grid(10.0, 100)
    f = Field(grid, grid.nodes * np.exp(-grid.nodes))
    assert f.is_dirichlet
    g = Field(grid, np.ones(101))
    assert not g.is_dirichlet
    with pytest.raises(ParameterError, match="vanish"):
        g.require_dirichlet()


def test_sup_norm():
    grid = make_grid(10.0, 100)
    f = Field(grid, np.sin(grid.nodes))
    assert sup_norm(f) == pytest.approx(np.max(np.abs(np.sin(grid.nodes))))


def co_norm(f: Field) -> float:
    """Compact-open norm of one field: the segment norm of its constant history."""
    return segment_co_norm(Segment.constant(f, 0.1, 0.1))


def test_compact_open_norm_frozen_oracle():
    # Oracle computed by hand before implementation: for f = min(x, 2)
    # on [0, 4] with n_max = 4, each prefix sup is sup_{[0, min(n, L)]} f:
    #   n=1: 1, n=2: 2, n=3: 2, n=4: 2, tail: 2
    # norm = 1/2 + 2/4 + 2/8 + 2/16 + 2/16 = 1.5
    grid = make_grid(4.0, 400)
    f = Field(grid, np.minimum(grid.nodes, 2.0))
    assert co_norm(f) == pytest.approx(1.5, abs=1e-12)


def test_compact_open_norm_bounds_and_monotonicity():
    grid = make_grid(20.0, 200)
    f = Field(grid, grid.nodes * np.exp(-grid.nodes))
    co = co_norm(f)
    # weighted sum of local sups is dominated by the global sup:
    # sum 2^{-n} + tail weight = 1.
    assert co <= sup_norm(f) + 1e-12
    assert co > 0
    # scaling homogeneity
    g = Field(grid, 3.0 * f.values)
    assert co_norm(g) == pytest.approx(3.0 * co, rel=1e-12)


def test_default_n_max():
    assert default_n_max(make_grid(20.0, 200)) == 20
    assert default_n_max(make_grid(0.5, 10)) == 1


def test_segment_construction_and_indexing():
    grid = make_grid(10.0, 100)
    seg = Segment.from_function(grid, 0.5, 0.1, lambda xi, x: (1 + xi) * x * np.exp(-x))
    assert seg.n_frames == 6
    # frame(k) walks from xi = -tau to xi = 0
    assert np.allclose(seg.frame(0).values, (1 - 0.5) * grid.nodes * np.exp(-grid.nodes))
    assert np.allclose(seg.frame(5).values, grid.nodes * np.exp(-grid.nodes))


def test_segment_constant():
    grid = make_grid(10.0, 100)
    f = Field(grid, np.tanh(grid.nodes))
    seg = Segment.constant(f, 0.3, 0.1)
    assert seg.n_frames == 4
    for k in range(4):
        assert np.array_equal(seg.frame(k).values, f.values)


def test_segment_norms():
    grid = make_grid(10.0, 100)
    seg = Segment.from_function(grid, 0.2, 0.1, lambda xi, x: (1 + xi) * np.sin(x))
    assert segment_co_norm(seg) == pytest.approx(
        max(co_norm(seg.frame(k)) for k in range(seg.n_frames))
    )


def test_segment_co_norm_vectorised_is_bit_identical():
    # one frame at a time, summed in n order up to ceil(L): the reference
    # the vectorised norm must reproduce exactly, frame by frame
    def frame_norm(grid, row):
        n_max = math.ceil(grid.length)
        prefix = np.maximum.accumulate(np.abs(row))
        total = 0.0
        for n in range(1, n_max + 1):
            i = min(grid.n_cells, int(math.floor(min(float(n), grid.length) / grid.dx + 1e-9)))
            total += 2.0 ** (-n) * prefix[i]
        return float(total + 2.0 ** (-n_max) * prefix[-1])

    rng = np.random.default_rng(21)
    for length, n_cells in ((10.0, 100), (7.3, 37), (20.0, 200), (0.5, 10)):
        grid = make_grid(length, n_cells)
        for frames in (2, 6, 11):
            values = rng.standard_normal((frames, n_cells + 1)) * 10.0 ** rng.uniform(-3, 3, (frames, 1))
            seg = Segment(grid, 0.1 * (frames - 1), 0.1, values)
            got = segment_co_norm(seg)
            assert got == max(co_norm(seg.frame(k)) for k in range(frames))
            assert got == max(frame_norm(grid, row) for row in values)


def test_segment_validation():
    grid = make_grid(10.0, 100)
    with pytest.raises(ParameterError, match="tau"):
        Segment.from_function(grid, 0.25, 0.1, lambda xi, x: x)
    with pytest.raises(ParameterError, match="values"):
        Segment(grid, 0.2, 0.1, np.zeros((5, 101)))
