"""Brownian increments on the grid, step functions, and batch plumbing.

A path is the vector of cell increments of a Brownian motion on the grid;
a batch holds ``count`` paths as a (count, n_cells) float64 array.  Every
path is drawn from its own counter-based substream keyed by (seed, path
index), so path i has the same increments no matter the batch size or
evaluation order.

The substream is Philox4x64-10 (Salmon et al., "Parallel random numbers:
as easy as 1, 2, 3", SC'11), with 64-bit words and arithmetic mod 2**64:

    key     (k0, k1) = (seed, path_index),  0 <= seed < 2**64
    counter (c0, c1, c2, c3) = (b + 1, 0, 0, 0) for output block b = 0, 1, ..
    round   (h0, l0) = hi/lo words of the 128-bit product M0 * c0
            (h1, l1) = hi/lo words of the 128-bit product M1 * c2
            (c0, c1, c2, c3) <- (h1 ^ c1 ^ k0, l1, h0 ^ c3 ^ k1, l0)
    10 rounds; before every round but the first, k0 += W0 and k1 += W1
    M0, M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
    W0, W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B

Block b yields the words 4b .. 4b+3 in the order c0, c1, c2, c3, and path
i uses its first n_cells words w_j:

    k_j = w_j >> 11                           (uniform on {0, .., 2**53 - 1})
    u_j = (k_j + 1/2) * 2**-53
    dX_j = ndtri(u_j) * sqrt(delta)

This is the stream of ``np.random.Generator(np.random.Philox(key=seed |
index << 64)).integers(0, 2**53)``; the sampler computes it for a block of
paths at once.  Only k1 differs between paths, and it first enters c2 at
the end of round 1, so the counters start as one row: c0 is the block
numbers and c1 = c2 = c3 = 0.  Broadcasting then runs round 1 and the c0
half of round 2 once per block instead of once per path.

Step functions are deterministic, one value per cell; the isonormal value
X(f) = sum_k f_k dX_k has covariance equal to the L^2 inner product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .grid import Grid, is_index

__all__ = [
    "StepFunction",
    "PathBatch",
    "sample_paths",
    "isonormal_eval",
    "reverse_batch",
]

_U64 = (1 << 64) - 1


@dataclass(frozen=True)
class StepFunction:
    """Deterministic function constant on grid cells."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_cells,):
            raise ValueError(f"need {self.grid.n_cells} cell values, got shape {v.shape}")
        bad = v[~np.isfinite(v)]
        if bad.size:
            raise ValueError(f"step function value {float(bad[0])!r} is not finite")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, grid: Grid, c: float) -> "StepFunction":
        return cls(grid, np.full(grid.n_cells, float(c)))

    @classmethod
    def indicator(cls, grid: Grid, a: int, b: int) -> "StepFunction":
        """Indicator of the cells in (a, b], for boundary indices a <= b."""
        grid.check_interval(a, b)
        mask = np.zeros(grid.n_cells)
        mask[a:b] = 1.0
        return cls(grid, mask)

    def scaled(self, c: float) -> "StepFunction":
        return StepFunction(self.grid, self.values * c)

    def multiply(self, other: "StepFunction") -> "StepFunction":
        self._check(other)
        return StepFunction(self.grid, self.values * other.values)

    def inner(self, other: "StepFunction") -> float:
        self._check(other)
        return float(np.dot(self.values, other.values)) * self.grid.delta

    def norm_sq(self) -> float:
        return self.inner(self)

    def norm(self) -> float:
        return float(np.sqrt(self.norm_sq()))

    def _check(self, other: "StepFunction") -> None:
        if other.grid != self.grid:
            raise ValueError("step functions live on different grids")


@dataclass(frozen=True)
class PathBatch:
    """A batch of Brownian increment vectors, (count, n_cells) float64."""

    grid: Grid
    increments: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        inc = np.ascontiguousarray(self.increments, dtype=float)
        if inc.ndim != 2 or inc.shape[1] != self.grid.n_cells:
            raise ValueError(f"increments shape {inc.shape} does not match {self.grid.n_cells} cells")
        inc.flags.writeable = False
        object.__setattr__(self, "increments", inc)

    @property
    def count(self) -> int:
        return int(self.increments.shape[0])

    def boundary_values(self) -> np.ndarray:
        """X at every boundary: (count, n_cells + 1), X_0 = 0."""
        out = np.zeros((self.count, self.grid.n_cells + 1))
        np.cumsum(self.increments, axis=1, out=out[:, 1:])
        return out


_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_BLOCK_PATHS = 4096  # paths sampled together; bounds the size of temporaries


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit product m * x, from 32-bit halves.

    The halves, partial products and sums live in four arrays updated in
    place; additions are mod 2**64, so their order leaves every bit.
    """
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> np.uint64(32)
    cross = x_lo * m_hi
    hi_lo = x_hi * m_lo
    x_lo *= m_lo
    x_lo >>= np.uint64(32)
    cross += x_lo
    np.bitwise_and(hi_lo, _LO32, out=x_lo)
    cross += x_lo
    cross >>= np.uint64(32)
    hi_lo >>= np.uint64(32)
    x_hi *= m_hi
    x_hi += hi_lo
    x_hi += cross
    return x_hi, x * np.uint64(m)


def _philox_words(seed: int, lo: int, hi: int, n: int) -> np.ndarray:
    """The first ``n`` Philox4x64-10 words of paths lo..hi-1, (hi - lo, n) uint64."""
    n_blocks = -(-n // 4)
    k0, k1 = int(seed), np.arange(lo, hi, dtype=np.uint64)[:, None]
    c0 = np.arange(1, n_blocks + 1, dtype=np.uint64)
    c1 = c2 = c3 = np.zeros(1, dtype=np.uint64)
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 = (k0 + _PHILOX_W[0]) & _U64
            k1 = k1 + np.uint64(_PHILOX_W[1])
        h0, l0 = _mulhilo(_PHILOX_M[0], c0)
        h1, l1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = h1 ^ c1 ^ np.uint64(k0), l1, h0 ^ c3 ^ k1, l0
    return np.stack((c0, c1, c2, c3), axis=-1).reshape(hi - lo, 4 * n_blocks)[:, :n]


def sample_paths(grid: Grid, count: int, seed: int) -> PathBatch:
    """Draw ``count`` paths; path i is the same for any ``count`` above i."""
    # a float or bool would be truncated by int() in _philox_words and silently pick another seed's paths
    if not (is_index(count) and count >= 0):
        raise ValueError(f"count={count!r} is not a nonnegative integer")
    if not (is_index(seed) and 0 <= seed <= _U64):
        raise ValueError(f"seed={seed!r} is not an integer in 0..2**64-1")
    n = grid.n_cells
    scale = np.sqrt(grid.delta)
    increments = np.empty((count, n))
    for a in range(0, count, _BLOCK_PATHS):
        b = min(a + _BLOCK_PATHS, count)
        out = increments[a:b]
        bits = out.view(np.uint64)
        np.right_shift(_philox_words(seed, a, b, n), np.uint64(11), out=bits)
        np.add(bits, 0.5, out=out)
        out *= 2.0**-53
        ndtri(out, out=out)
        out *= scale
    return PathBatch(grid, increments)


def isonormal_eval(batch: PathBatch, f: StepFunction) -> np.ndarray:
    """X(f) = sum_k f_k dX_k per path."""
    if f.grid != batch.grid:
        raise ValueError("step function and batch live on different grids")
    return batch.increments @ f.values


def reverse_batch(batch: PathBatch) -> PathBatch:
    """Increments of the reversed path Xhat_t = X_1 - X_{1-t}.

    Reversed cell j picks up the original increment of cell n + 1 - j;
    applying the map twice restores the batch.
    """
    return PathBatch(batch.grid, batch.increments[:, ::-1])

