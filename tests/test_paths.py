"""Path sampling determinism, step functions, and batch operations."""

import re

import numpy as np
import pytest
from scipy.special import ndtri

from skorochaos.grid import Grid
from skorochaos.paths import (
    _BLOCK_PATHS,
    PathBatch,
    StepFunction,
    isonormal_eval,
    reverse_batch,
    sample_paths,
)


def test_same_seed_same_bytes(grid8):
    a = sample_paths(grid8, 50, seed=9)
    b = sample_paths(grid8, 50, seed=9)
    assert a.increments.tobytes() == b.increments.tobytes()


def test_different_seeds_differ(grid8):
    a = sample_paths(grid8, 50, seed=9)
    b = sample_paths(grid8, 50, seed=10)
    assert not np.array_equal(a.increments, b.increments)


def test_prefix_stability(grid8):
    small = sample_paths(grid8, 10, seed=4)
    large = sample_paths(grid8, 100, seed=4)
    np.testing.assert_array_equal(large.increments[:10], small.increments)


def _oracle_increments(grid, count, seed):
    """The per-path stream: one numpy Philox generator keyed by (seed, path index)."""
    n = grid.n_cells
    bits = np.empty((count, n), dtype=np.int64)
    for i in range(count):
        gen = np.random.Generator(np.random.Philox(key=seed | (i << 64)))
        bits[i] = gen.integers(0, 1 << 53, size=n, dtype=np.int64)
    return ndtri((bits + 0.5) * 2.0**-53) * np.sqrt(grid.delta)


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("width", [1, 5, 7, 8, 16, 64])
def test_sampler_matches_per_path_philox_oracle(seed, width):
    grid = Grid(width)
    got = sample_paths(grid, 37, seed)
    assert got.increments.tobytes() == _oracle_increments(grid, 37, seed).tobytes()


@pytest.mark.parametrize("extra", [1, 3])
def test_sampler_matches_oracle_across_block_boundary(extra):
    grid, count = Grid(5), _BLOCK_PATHS + extra
    got = sample_paths(grid, count, seed=2**63 + 5)
    assert got.increments.tobytes() == _oracle_increments(grid, count, 2**63 + 5).tobytes()


def test_sampler_zero_paths(grid8):
    assert sample_paths(grid8, 0, seed=1).increments.shape == (0, 8)


# int() would truncate 1.5, 0.9, 1.0 and True to seed 0 or 1 and return that seed's paths
@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, 0.9, 1.0, True])
def test_out_of_range_seed_rejected(grid8, seed):
    with pytest.raises(ValueError, match=re.escape(str(seed))):
        sample_paths(grid8, 4, seed)


@pytest.mark.parametrize("count", [2.0, True, -1])
def test_bad_count_rejected(grid8, count):
    with pytest.raises(ValueError, match="count"):
        sample_paths(grid8, count, seed=1)


def test_numpy_integer_seed_and_count_accepted(grid8):
    got = sample_paths(grid8, np.int64(4), np.uint64(7))
    assert got.increments.tobytes() == sample_paths(grid8, 4, 7).increments.tobytes()


def test_increment_moments(grid16):
    batch = sample_paths(grid16, 20000, seed=3)
    inc = batch.increments
    assert abs(inc.mean()) < 3 * np.sqrt(grid16.delta / inc.size)
    assert np.var(inc) == pytest.approx(grid16.delta, rel=0.05)


def test_boundary_values_cumsum(grid8, batch8):
    bv = batch8.boundary_values()
    assert bv.shape == (batch8.count, 9)
    np.testing.assert_array_equal(bv[:, 0], 0.0)
    np.testing.assert_allclose(bv[:, -1], batch8.increments.sum(axis=1))


def test_step_function_inner_and_tail(grid8):
    h = StepFunction.indicator(grid8, 0, 4)
    g = StepFunction.constant(grid8, 2.0)
    assert h.norm_sq() == pytest.approx(0.5)
    assert h.inner(g) == pytest.approx(1.0)
    assert h.multiply(StepFunction.indicator(grid8, 2, 8)).norm_sq() == pytest.approx(0.25)
    assert h.multiply(StepFunction.indicator(grid8, 0, 2)).norm_sq() == pytest.approx(0.25)


def test_isonormal_eval_is_weighted_sum(grid8, batch8):
    h = StepFunction.indicator(grid8, 2, 6)
    got = isonormal_eval(batch8, h)
    want = batch8.increments[:, 2:6].sum(axis=1)
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_reverse_batch_is_involution(batch8):
    rev = reverse_batch(reverse_batch(batch8))
    np.testing.assert_array_equal(rev.increments, batch8.increments)


def test_reverse_batch_matches_reversed_path(batch8):
    # X-hat_t = X_1 - X_{1-t} sampled at boundaries
    bv = batch8.boundary_values()
    rbv = reverse_batch(batch8).boundary_values()
    want = bv[:, -1:] - bv[:, ::-1]
    np.testing.assert_allclose(rbv, want, atol=1e-15)


def test_batch_shape_validated(grid8):
    with pytest.raises(ValueError):
        PathBatch(grid8, np.zeros((10, 7)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_step_function_values_validated(grid8, bad):
    with pytest.raises(ValueError, match="need 8 cell values"):
        StepFunction(grid8, np.zeros(7))
    values = np.ones(8)
    values[3] = bad
    with pytest.raises(ValueError, match=re.escape(f"{bad!r} is not finite")):
        StepFunction(grid8, values)
