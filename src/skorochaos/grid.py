"""Uniform grid on [0, 1] and the coordinate-count set geometry.

Everything in this package lives on a uniform grid of ``n`` half-open cells

    cell k = ((k - 1) * delta, k * delta],   k = 1..n,   delta = 1/n.

Cell indices are 1-based; boundary indices run 0..n with boundary i at
``i * delta``.  Every time argument below the command line is a boundary
index; ``Grid.boundary_index`` turns a grid-aligned float time into one
where a config value holds it, ``is_index`` is the one test that an index
is an integer, ``Grid.check_interval`` is the one check that an index
pair is integral and in range, and ``Grid.check_cell`` the same for a
cell index, which it hands back as a Python ``int``.  The map runs one
way: no index becomes a float time again.

The second half of the module implements the region combinatorics used by
the finite-chaos representation of Skorohod integral processes: for a point
``x`` in (0,1)^M and a selection of m coordinate slots, the "selection
region" is where every selected coordinate lies strictly below every
unselected one, and the t-section additionally pins the threshold t between
the two groups.  The union of the t-sections over all m-element selections
is exactly the set of points with m coordinates below t; those unions over
m = 0..M tile (0,1)^M up to a Lebesgue-null exceptional set (ties, or a
coordinate hitting t).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from numbers import Integral
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Grid",
    "is_index",
    "Partition",
    "Selection",
    "GenericityError",
    "RegionReport",
    "all_selections",
    "in_selection_region_at",
    "exact_below_count",
    "verify_region_partition",
]

_ALIGN_TOL = 1e-9


def is_index(i: object) -> bool:
    """True for an integer index; a bool or a float is not one, even 1.0."""
    return isinstance(i, Integral) and not isinstance(i, bool)


class GenericityError(ValueError):
    """A sample point hit the Lebesgue-null exceptional set (tie, or a
    coordinate equal to the threshold).  Callers should resample."""


@dataclass(frozen=True)
class Grid:
    """Uniform partition of [0, 1] into ``n_cells`` half-open cells."""

    n_cells: int

    def __post_init__(self) -> None:
        if not is_index(self.n_cells):
            raise ValueError(f"grid needs an integer cell count, got {self.n_cells!r}")
        if self.n_cells < 1:
            raise ValueError(f"grid needs at least one cell, got {self.n_cells}")
        object.__setattr__(self, "n_cells", int(self.n_cells))

    @property
    def delta(self) -> float:
        return 1.0 / self.n_cells

    def boundary_index(self, t: float) -> int:
        """Boundary index of a grid-aligned time t (0 <= t <= 1)."""
        if not math.isfinite(t):
            raise ValueError(f"time {t!r} is not finite")
        raw = t * self.n_cells
        idx = round(raw)
        if abs(raw - idx) > _ALIGN_TOL * self.n_cells or not 0 <= idx <= self.n_cells:
            raise ValueError(f"time {t!r} is not a boundary of a {self.n_cells}-cell grid")
        return idx

    def check_interval(self, a: int, b: int) -> None:
        """Raise unless (a, b] is an interval of boundary indices, 0 <= a <= b <= n."""
        if not (is_index(a) and is_index(b)):
            raise ValueError(f"interval ({a!r}, {b!r}] needs integer boundary indices")
        if not 0 <= a <= b <= self.n_cells:
            raise ValueError(f"interval ({a}, {b}] is not 0 <= a <= b <= {self.n_cells}")

    def check_cell(self, c: int) -> int:
        """c as a Python int; raise unless it is an integer cell index, 1 <= c <= n."""
        if not (is_index(c) and 1 <= c <= self.n_cells):
            raise ValueError(f"cell {c!r} out of range: need an integer cell index 1..{self.n_cells}")
        return int(c)

    def cells(self) -> range:
        return range(1, self.n_cells + 1)

    @property
    def depth(self) -> int:
        """log2(n_cells) for power-of-two grids."""
        d = self.n_cells.bit_length() - 1
        if 1 << d != self.n_cells:
            raise ValueError(f"{self.n_cells} cells: not a power of two")
        return d


@dataclass(frozen=True)
class Partition:
    """Increasing boundary indices 0 = b_0 < b_1 < ... < b_r = n_cells."""

    grid: Grid
    bounds: tuple[int, ...]

    def __post_init__(self) -> None:
        b = self.bounds
        if not all(is_index(i) for i in b):
            raise ValueError(f"partition {b!r} needs integer boundary indices")
        if len(b) < 2 or b[0] != 0 or b[-1] != self.grid.n_cells:
            raise ValueError(f"partition {b} must run from 0 to {self.grid.n_cells}")
        if any(b[i + 1] <= b[i] for i in range(len(b) - 1)):
            raise ValueError(f"partition {b} has degenerate or unordered intervals")

    @classmethod
    def dyadic(cls, grid: Grid, depth: int) -> "Partition":
        n = grid.n_cells
        if not (is_index(depth) and 0 <= depth < n.bit_length() and n % (1 << depth) == 0):
            raise ValueError(f"dyadic depth {depth!r} is not an integer that divides a {n}-cell grid")
        return cls(grid, tuple(range(0, n + 1, n >> depth)))

    @classmethod
    def dyadic_family(cls, grid: Grid) -> tuple["Partition", ...]:
        """All dyadic coarsenings, trivial {0,1} through the full grid."""
        return tuple(cls.dyadic(grid, d) for d in range(grid.depth + 1))

    @property
    def n_intervals(self) -> int:
        return len(self.bounds) - 1

    def intervals(self) -> Iterator[tuple[int, int]]:
        b = self.bounds
        return ((b[i], b[i + 1]) for i in range(len(b) - 1))


# ---------------------------------------------------------------------------
# selection-region geometry on (0, 1)^M


@dataclass(frozen=True)
class Selection:
    """A choice of m coordinate slots out of M (0-based, strictly increasing)."""

    total: int
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        idx = self.indices
        if any(not 0 <= i < self.total for i in idx):
            raise ValueError(f"indices {idx} out of range for {self.total} coordinates")
        if any(idx[i + 1] <= idx[i] for i in range(len(idx) - 1)):
            raise ValueError(f"indices {idx} must be strictly increasing")

    @property
    def size(self) -> int:
        return len(self.indices)

    def split(self, x: Sequence[float]) -> tuple[list[float], list[float]]:
        sel = set(self.indices)
        chosen = [x[i] for i in self.indices]
        rest = [x[i] for i in range(self.total) if i not in sel]
        return chosen, rest


def all_selections(total: int, size: int) -> Iterator[Selection]:
    for combo in itertools.combinations(range(total), size):
        yield Selection(total, combo)


def _check_point(x: Sequence[float], total: int) -> None:
    if len(x) != total:
        raise ValueError(f"point has {len(x)} coordinates, expected {total}")
    if any(not 0.0 < v < 1.0 for v in x):
        raise ValueError(f"point {tuple(x)} not interior to (0,1)^{total}")


def in_selection_region_at(sel: Selection, t: float, x: Sequence[float]) -> bool:
    """The t-section: selected coordinates below t, the rest above."""
    _check_point(x, sel.total)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"threshold {t!r} outside [0, 1]")
    chosen, rest = sel.split(x)
    return max(chosen, default=-math.inf) < t < min(rest, default=math.inf)


def exact_below_count(total: int, m: int, t: float, x: Sequence[float]) -> bool:
    """True when exactly m coordinates of x lie strictly below t.

    This is the direct coordinate-count criterion; it agrees with the union
    of the t-sections over all m-element selections away from the
    exceptional set.  At t = 0 or t = 1 the strict inequalities on both
    sides empty the region for 0 < m < total.
    """
    _check_point(x, total)
    if not 0 <= m <= total:
        raise ValueError(f"count {m} out of range 0..{total}")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"threshold {t!r} outside [0, 1]")
    below = sum(1 for v in x if v < t)
    above = sum(1 for v in x if v > t)
    return below == m and above == total - m


@dataclass(frozen=True)
class RegionReport:
    n_points: int
    covered: int
    multi_covered: int
    disagreements: int  # points where the count criterion and the section union differ

    @property
    def ok(self) -> bool:
        return self.covered == self.n_points and self.multi_covered == 0 and self.disagreements == 0


def verify_region_partition(total: int, t: float, points: Iterable[Sequence[float]]) -> RegionReport:
    """Check that the count regions m = 0..total tile the cube at the samples.

    For each sample point the point must fall in exactly one region, and
    that region must agree with the matching union of t-sections; the
    report counts the points where either fails.  Points
    in the exceptional set (tied coordinates, or a coordinate equal to t)
    raise GenericityError: the caller is expected to resample, mirroring
    the fact that the tiling only holds up to a null set.
    """
    n_points = covered = multi = disagreements = 0
    for x in points:
        _check_point(x, total)
        if len({*x}) != len(x) or any(v == t for v in x):
            raise GenericityError(f"point {tuple(x)} lies in the exceptional set for t={t}")
        n_points += 1
        hits = [m for m in range(total + 1) if exact_below_count(total, m, t, x)]
        union_hits = [
            m
            for m in range(total + 1)
            if any(in_selection_region_at(sel, t, x) for sel in all_selections(total, m))
        ]
        disagreements += hits != union_hits
        if len(hits) >= 1:
            covered += 1
        if len(hits) > 1:
            multi += 1
    return RegionReport(n_points=n_points, covered=covered, multi_covered=multi, disagreements=disagreements)
