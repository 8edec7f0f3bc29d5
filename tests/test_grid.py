"""Grid indexing, partitions, and the count-region tiling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skorochaos.grid import (
    GenericityError,
    Grid,
    Partition,
    Selection,
    all_selections,
    exact_below_count,
    in_selection_region_at,
    verify_region_partition,
)


def test_boundary_round_trip():
    # the reflected form is what lets the reversed-time code write n - b for 1 - t
    for n in range(1, 129):
        grid = Grid(n)
        for b in range(n + 1):
            t = b * grid.delta
            assert grid.boundary_index(t) == b
            assert grid.boundary_index(1.0 - t) == n - b


@pytest.mark.parametrize("n_cells", [8.0, 2.5, True, "8"])
def test_non_integer_cell_count_rejected(n_cells):
    with pytest.raises(ValueError, match="integer cell count"):
        Grid(n_cells)


def test_cell_count_stored_as_python_int():
    grid = Grid(np.int64(8))
    assert type(grid.n_cells) is int
    assert grid == Grid(8)


def test_off_grid_time_rejected(grid8):
    with pytest.raises(ValueError):
        grid8.boundary_index(0.3)


@pytest.mark.parametrize("t", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_time_rejected(grid8, t):
    with pytest.raises(ValueError, match="not finite"):
        grid8.boundary_index(t)


def test_partition_dyadic_family(grid16):
    fam = Partition.dyadic_family(grid16)
    assert [p.n_intervals for p in fam] == [1, 2, 4, 8, 16]
    assert fam[0].bounds == (0, 16)
    assert fam[-1].bounds == tuple(range(17))


def test_partition_rejects_bad_bounds(grid8):
    with pytest.raises(ValueError):
        Partition(grid8, (0, 3, 3, 8))
    with pytest.raises(ValueError):
        Partition(grid8, (1, 8))


def test_selection_count():
    for total in range(1, 6):
        for size in range(total + 1):
            sels = list(all_selections(total, size))
            assert len(sels) == math.comb(total, size)
            assert all(s.size == size for s in sels)


def test_selection_region_membership():
    # choosing coordinate 0 out of two: region is x0 < x1 with x0 below t
    sel = Selection(total=2, indices=(0,))
    assert in_selection_region_at(sel, 0.5, (0.2, 0.9))
    assert not in_selection_region_at(sel, 0.1, (0.2, 0.9))
    # at t = 0 the empty selection, and at t = 1 the full one, is the whole cube
    x = (0.2, 0.9)
    none, both = Selection(total=2, indices=()), Selection(total=2, indices=(0, 1))
    assert in_selection_region_at(none, 0.0, x) and exact_below_count(2, 0, 0.0, x)
    assert not in_selection_region_at(sel, 0.0, x)
    assert not in_selection_region_at(both, 0.0, x)
    assert in_selection_region_at(both, 1.0, x) and exact_below_count(2, 2, 1.0, x)
    assert not in_selection_region_at(sel, 1.0, x)
    assert not in_selection_region_at(none, 1.0, x)


def test_exact_below_count_matches_direct():
    x = (0.1, 0.6, 0.7)
    assert exact_below_count(3, 1, 0.5, x)
    assert not exact_below_count(3, 2, 0.5, x)


def test_region_partition_brute_force(rng):
    for total in (1, 2, 3, 4):
        pts = [tuple(rng.uniform(size=total)) for _ in range(200)]
        report = verify_region_partition(total, 0.5, pts)
        assert report.ok
        assert report.n_points == 200


def test_region_partition_rejects_exceptional_points():
    with pytest.raises(GenericityError):
        verify_region_partition(2, 0.5, [(0.5, 0.7)])
    with pytest.raises(GenericityError):
        verify_region_partition(2, 0.25, [(0.7, 0.7)])


@settings(max_examples=40, deadline=None)
@given(
    total=st.integers(min_value=1, max_value=4),
    t=st.sampled_from([0.25, 0.5, 0.75]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_every_generic_point_in_exactly_one_region(total, t, seed):
    gen = np.random.default_rng(seed)
    pts = []
    while len(pts) < 20:
        x = tuple(gen.uniform(size=total))
        if len(set(x)) == total and t not in x:
            pts.append(x)
    report = verify_region_partition(total, t, pts)
    assert report.covered == 20
    assert report.multi_covered == 0
    assert report.disagreements == 0
