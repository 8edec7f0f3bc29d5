"""Grid stopping times and the stopped-integral identities.

A stopping rule here maps each increment path to a boundary index, and
deciding the value may only use increments up to that boundary.  Three
rules ship: a deterministic boundary index, first passage above a level,
and first exit from a band; the hitting rules return time 1 when the
path never triggers.

Two facts about the integral process survive stopping exactly on the
grid.  First, optional sampling: the expectation of Y_T - Y_S against
any variable known at time S vanishes, checked here as Monte Carlo
z-scores.  Second, for a step integrand whose interval values have no
kernel support inside their own interval, the stopped integral equals
the sum of interval values times stopped increments, pathwise with no
error beyond float roundoff.  Both checks return plain tuples of numbers
and arrays, which the experiment layer writes into its rows.  Each check
reads one boundary walk of its batch (``PathBatch.boundary_values``): the
rules decide from it through ``GridStoppingTime.eval_walk``, and the
S-measurable test variables and stopped increments are read off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chaos import eval_many
from .grid import Grid
from .paths import PathBatch
from .skorohod import SkorohodProcess, StepProcess, skorohod_process

__all__ = [
    "GridStoppingTime",
    "optional_sampling_check",
    "stopped_integral",
]


@dataclass(frozen=True)
class GridStoppingTime:
    """A boundary-valued stopping rule for the grid filtration.

    kind is one of "deterministic", "level-hitting", "first-exit"; params
    carries (b,) for a boundary index b, (level,), or (lo, hi).  Hitting
    rules scan boundaries k = 1..n in order and fire at the first boundary
    value satisfying the condition, so the decision never looks past the
    returned time.
    """

    grid: Grid
    kind: str
    params: tuple[float, ...]

    @classmethod
    def deterministic(cls, grid: Grid, b: int) -> "GridStoppingTime":
        """Stop at boundary index b on every path."""
        grid.check_interval(0, b)
        return cls(grid, "deterministic", (int(b),))

    @classmethod
    def level_hitting(cls, grid: Grid, level: float) -> "GridStoppingTime":
        """First boundary k >= 1 with X_{k delta} >= level, else time 1."""
        level = float(level)
        if math.isnan(level):
            raise ValueError("a NaN level is never reached, so every path would stop at time 1")
        return cls(grid, "level-hitting", (level,))

    @classmethod
    def first_exit(cls, grid: Grid, lo: float, hi: float) -> "GridStoppingTime":
        """First boundary k >= 1 with X outside (lo, hi), else time 1."""
        if not lo < 0.0 < hi:
            raise ValueError("the band must contain the starting point 0")
        return cls(grid, "first-exit", (float(lo), float(hi)))

    def label(self) -> str:
        """Kind and parameters; a deterministic rule prints its time b * delta."""
        params = (self.params[0] * self.grid.delta,) if self.kind == "deterministic" else self.params
        inner = ",".join(f"{p:g}" for p in params)
        return f"{self.kind}({inner})"

    def eval_walk(self, bv: np.ndarray) -> np.ndarray:
        """Boundary index per path from the boundary values ``bv`` of its batch.

        ``bv`` is (count, n_cells + 1) with X_0 in column 0; a walk with
        another column count belongs to a batch on another grid.
        """
        n = self.grid.n_cells
        if bv.ndim != 2 or bv.shape[1] != n + 1:
            raise ValueError(f"batch grid differs from stopping-time grid: walk shape {bv.shape}, {n} cells")
        if self.kind == "deterministic":
            return np.full(bv.shape[0], self.params[0], dtype=np.int64)
        walk = bv[:, 1:]
        if self.kind == "level-hitting":
            cond = walk >= self.params[0]
        elif self.kind == "first-exit":
            lo, hi = self.params
            cond = (walk <= lo) | (walk >= hi)
        else:
            raise ValueError(f"unknown stopping kind {self.kind!r}")
        hit = cond.any(axis=1)
        first = np.argmax(cond, axis=1) + 1
        return np.where(hit, first, n).astype(np.int64)


def _stopped_variables(grid: Grid, bv: np.ndarray, s_idx: np.ndarray) -> dict[str, np.ndarray]:
    """Test variables measurable at the stopping time S, read from the boundary values."""
    count = bv.shape[0]
    rows = np.arange(count)
    x_s = bv[rows, s_idx]
    quarter = grid.n_cells // 4 if grid.n_cells % 4 == 0 else 1
    x_cap = bv[rows, np.minimum(s_idx, quarter)]
    return {
        "one": np.ones(count),
        "stop_time": s_idx * grid.delta,
        "x_at_stop": x_s,
        "x_at_stop_capped": x_cap,
        "sign_x": np.sign(x_s),
        "tanh_x": np.tanh(x_s),
    }


def optional_sampling_check(
    Y: SkorohodProcess,
    S: GridStoppingTime,
    T: GridStoppingTime,
    batch: PathBatch,
) -> list[tuple[str, int, float, float, float]]:
    """z-scores of E[G (Y_T - Y_S)] over a panel of S-measurable G.

    One (test_variable, n_paths, estimate, std_error, z) row per G.  The
    check reads one boundary walk of the batch: S, T and every G come from
    it, and it is released before Y is evaluated, on each path only at its
    two stopping times.
    """
    bv = batch.boundary_values()
    s_idx = S.eval_walk(bv)
    t_idx = T.eval_walk(bv)
    if np.any(s_idx > t_idx):
        raise ValueError("S exceeds T on some path")
    variables = _stopped_variables(batch.grid, bv, s_idx)
    del bv
    y_t, y_s = Y.eval_at(batch, t_idx, s_idx)
    diff = y_t - y_s
    out = []
    for name, g in variables.items():
        prod = g * diff
        est = float(np.mean(prod))
        se = float(np.std(prod, ddof=1) / np.sqrt(batch.count))
        z = 0.0 if se == 0.0 and est == 0.0 else est / se
        out.append((name, batch.count, est, se, z))
    return out


def stopped_integral(
    step: StepProcess, times: Sequence[GridStoppingTime], batch: PathBatch
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Interval-value sum with stopped increments vs the frozen curve, one (lhs, rhs) pair per time.

    lhs sums F_i (X_{T and t_{i+1}} - X_{T and t_i}) over the partition;
    rhs evaluates the integral process of the step integrand at every
    boundary and reads the column T lands on.  Because each F_i has no
    kernel support inside its own interval, the two agree pathwise.  The
    coefficients and the curve are evaluated once for all the times.
    """
    bv = batch.boundary_values()
    rows = np.arange(batch.count)
    coeffs = eval_many(list(step.values), batch)
    curve = skorohod_process(step.as_process()).eval_batch(batch)
    out = []
    for T in times:
        t_idx = T.eval_walk(bv)
        lhs = np.zeros(batch.count)
        for i, (lo, hi) in enumerate(step.partition.intervals()):
            left = bv[rows, np.minimum(t_idx, lo)]
            right = bv[rows, np.minimum(t_idx, hi)]
            lhs += coeffs[i] * (right - left)
        out.append((lhs, curve[rows, t_idx]))
    return out

