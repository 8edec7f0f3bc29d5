"""Brownian increments on the grid, step functions, and batch plumbing.

A path is the vector of cell increments of a Brownian motion on the grid;
a batch holds ``count`` paths as a (count, n_cells) float64 array.  Every
path is drawn from its own counter-based substream keyed by (seed, path
index), so path i has the same increments no matter the batch size,
evaluation order, or worker count:

    key = seed | (path_index << 64)          (Philox 2x64-bit key)
    u_j = (k_j + 1/2) * 2**-53,  k_j uniform on {0, .., 2**53 - 1}
    dX_j = ndtri(u_j) * sqrt(delta)

Step functions are deterministic, one value per cell; the isonormal value
X(f) = sum_k f_k dX_k has covariance equal to the L^2 inner product.
"""

from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import BinaryIO, Callable

import numpy as np
from scipy.special import ndtri

from .grid import Grid

__all__ = [
    "StepFunction",
    "PathBatch",
    "sample_paths",
    "isonormal_eval",
    "reverse_batch",
    "write_batch",
    "read_batch",
    "map_path_chunks",
]

_MAGIC = 0x534B504231303030  # "SKPB1000"
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class StepFunction:
    """Deterministic function constant on grid cells."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_cells,):
            raise ValueError(f"need {self.grid.n_cells} cell values, got shape {v.shape}")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, grid: Grid, c: float) -> "StepFunction":
        return cls(grid, np.full(grid.n_cells, float(c)))

    @classmethod
    def indicator(cls, grid: Grid, a: float, b: float) -> "StepFunction":
        """Indicator of the half-open interval (a, b]."""
        mask = np.zeros(grid.n_cells)
        ia, ib = grid.boundary_index(a), grid.boundary_index(b)
        mask[ia:ib] = 1.0
        return cls(grid, mask)

    def scaled(self, c: float) -> "StepFunction":
        return StepFunction(self.grid, self.values * c)

    def add(self, other: "StepFunction") -> "StepFunction":
        self._check(other)
        return StepFunction(self.grid, self.values + other.values)

    def multiply(self, other: "StepFunction") -> "StepFunction":
        self._check(other)
        return StepFunction(self.grid, self.values * other.values)

    def tail(self, t: float) -> "StepFunction":
        """Restriction to (t, 1]."""
        return self.multiply(StepFunction.indicator(self.grid, t, 1.0))

    def head(self, t: float) -> "StepFunction":
        """Restriction to (0, t]."""
        return self.multiply(StepFunction.indicator(self.grid, 0.0, t))

    def reversed(self) -> "StepFunction":
        """f(1 - x): cell k picks up the value of cell n + 1 - k."""
        return StepFunction(self.grid, self.values[::-1])

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
    seed: int
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

    def take(self, count: int) -> "PathBatch":
        if count > self.count:
            raise ValueError(f"batch holds {self.count} paths, asked for {count}")
        return PathBatch(self.grid, self.seed, self.increments[:count])


def _path_uniform_bits(seed: int, index: int, n: int) -> np.ndarray:
    key = (seed & 0xFFFFFFFFFFFFFFFF) | (index << 64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.integers(0, 1 << 53, size=n, dtype=np.int64)


def _chunk_ranges(count: int, workers: int) -> list[tuple[int, int]]:
    """Split range(count) into at most ``workers`` contiguous chunks."""
    workers = max(1, min(workers, count)) if count else 1
    step = -(-count // workers) if count else 0
    return [(lo, min(lo + step, count)) for lo in range(0, count, step)] if count else []

def map_path_chunks(fn: Callable[[int, int], None], count: int, workers: int) -> None:
    """Run fn(lo, hi) over contiguous path chunks, possibly in threads.

    Each chunk writes disjoint output slices, so the result is identical
    for every worker count.
    """
    ranges = _chunk_ranges(count, workers)
    if len(ranges) <= 1:
        for lo, hi in ranges:
            fn(lo, hi)
        return
    with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
        for fut in [pool.submit(fn, lo, hi) for lo, hi in ranges]:
            fut.result()


def sample_paths(grid: Grid, count: int, seed: int, workers: int = 1) -> PathBatch:
    """Draw ``count`` paths; bit-identical for any worker count."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    n = grid.n_cells
    bits = np.empty((count, n), dtype=np.int64)

    def fill(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            bits[i] = _path_uniform_bits(seed, i, n)

    map_path_chunks(fill, count, workers)
    uniforms = (bits + 0.5) * 2.0**-53
    increments = ndtri(uniforms) * np.sqrt(grid.delta)
    return PathBatch(grid, seed, increments)


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
    return PathBatch(batch.grid, batch.seed, batch.increments[:, ::-1])


# ---------------------------------------------------------------------------
# binary dump: 5 little-endian u64 header fields, then row-major float64

def write_batch(fp: BinaryIO, batch: PathBatch) -> None:
    header = struct.pack(
        "<5Q", _MAGIC, _FORMAT_VERSION, batch.grid.n_cells, batch.count, batch.seed & 0xFFFFFFFFFFFFFFFF
    )
    fp.write(header)
    data = np.ascontiguousarray(batch.increments, dtype="<f8")
    fp.write(data.tobytes(order="C"))


def read_batch(fp: BinaryIO) -> PathBatch:
    header = fp.read(40)
    if len(header) != 40:
        raise ValueError("truncated batch header")
    magic, version, n_cells, count, seed = struct.unpack("<5Q", header)
    if magic != _MAGIC:
        raise ValueError(f"bad magic {magic:#x}")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported batch format version {version}")
    body = fp.read(8 * n_cells * count)
    if len(body) != 8 * n_cells * count:
        raise ValueError("truncated batch body")
    inc = np.frombuffer(body, dtype="<f8").reshape(count, n_cells).astype(float)
    return PathBatch(Grid(int(n_cells)), int(seed), inc)
