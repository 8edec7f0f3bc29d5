"""Backward representations driven by the reversed path X̂_t = X_1 - X_{1-t}.

Reversing time swaps cell k with cell n + 1 - k, and a functional's
kernels reverse coordinatewise, so every statement about the reversed
path is again exact kernel algebra.  The pieces here:

  * the difference representation Y_t = F - E[F | increments in [t, 1]],
    whose kernels are f_n minus their projection on the tail;
  * its predictable integrand in reversed time, one conditioned Malliavin
    derivative per reversed cell;
  * the discrete backward Ito sum against the reversed increments, whose
    mean-square gap to the exact representation decays like 1/N; it
    takes the reversed batch the caller already holds;
  * closed Hermite forms for F built from a single step function, to be
    set against the caller's evaluation of the difference representation;
  * the cumulative pathwise quadratic covariation (bracket) curve of two
    boundary-sampled paths and the forward-plus-bracket decomposition of
    the representation, whose residual is a pure quadratic-variation
    fluctuation.  The decomposition check takes the integrand already
    sampled at the reversed boundaries, so every time here stays a
    boundary index and none becomes a float time again.
"""

from __future__ import annotations

import math

import numpy as np

from .chaos import (
    ChaosFunctional,
    conditional_expectation,
    eval_many,
    hermite_values,
    malliavin_derivative,
)
from .grid import Grid
from .kernels import reverse_kernel
from .paths import PathBatch, StepFunction, isonormal_eval
from .skorohod import ChaosProcess

__all__ = [
    "reverse_functional",
    "tail_difference",
    "clark_ocone_integrand",
    "backward_ito_eval",
    "hermite_projection",
    "quadratic_covariation",
    "semimartingale_decomposition_check",
]


def reverse_functional(F: ChaosFunctional) -> ChaosFunctional:
    """The same random variable written in reversed-path coordinates."""
    return ChaosFunctional(F.grid, F.mean, {n: reverse_kernel(f) for n, f in F.kernels.items()})


def tail_difference(F: ChaosFunctional, b: int) -> ChaosFunctional:
    """The difference representation at boundary b: F - E[F | cells after b]."""
    return F.sub(conditional_expectation(F, 0, b))


def clark_ocone_integrand(F: ChaosFunctional) -> ChaosProcess:
    """Predictable reversed-time integrand of the difference representation.

    At reversed cell j the value is the derivative of F in the matching
    forward cell, conditioned on the reversed past, then rewritten in
    reversed coordinates.  Its kernel support lies strictly before cell j,
    which is the checkable form of predictability.
    """
    grid = F.grid
    n = grid.n_cells
    cells = []
    for j in grid.cells():
        fwd_cell = n + 1 - j
        d = malliavin_derivative(F, fwd_cell)
        cells.append(reverse_functional(conditional_expectation(d, 0, fwd_cell)))
    return ChaosProcess(grid, cells)


def backward_ito_eval(phi: ChaosProcess, rev: PathBatch, b: int) -> np.ndarray:
    """Discrete predictable sum over reversed cells in (n - b, n], b a boundary index.

    rev is the reversed batch, ``reverse_batch`` of the forward one.  phi
    must be written in reversed coordinates and adapted: the value at
    reversed cell j may only depend on reversed increments before j.
    """
    grid = phi.grid
    grid.check_interval(0, b)
    n = grid.n_cells
    window = range(n - b + 1, n + 1)
    for j in window:
        if any(c >= j for c in phi.at_cell(j).cells()):
            raise ValueError(f"integrand at reversed cell {j} is not predictable")
    vals = eval_many([phi.at_cell(j) for j in window], rev)
    out = np.zeros(rev.count)
    for row, j in enumerate(window):
        out += vals[row] * rev.increments[:, j - 1]
    return out


def hermite_projection(n: int, h: StepFunction, b: int, batch: PathBatch) -> np.ndarray | None:
    """Closed form of the difference representation of I_n(h^(x)n) at boundary index b.

    Pathwise it is n! (He_n(X(h)) - ||h tail||^n He_n(X(h tail)/||h
    tail||)) with h tail = h 1_(t_b,1], which equals ``tail_difference(
    hermite_functional(h, n), b)`` evaluated on batch, exactly for unit h.
    When the tail norm vanishes the closed form degenerates and None is
    returned.
    """
    if n < 0:
        raise ValueError(f"order {n} is negative")
    if abs(h.norm() - 1.0) > 1e-12:
        raise ValueError("the closed form needs a unit-norm step function")
    grid = h.grid
    tail = h.multiply(StepFunction.indicator(grid, b, grid.n_cells))
    tau = tail.norm()
    if tau == 0.0:
        return None
    top = isonormal_eval(batch, h)
    tt = isonormal_eval(batch, tail) / tau
    fact = math.factorial(n)
    return fact * (hermite_values(n, top)[n] - tau**n * hermite_values(n, tt)[n])


def quadratic_covariation(grid: Grid, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Cumulative sum of increment products, plus U_0 V_0.

    U and V hold one value per boundary; the result, shape (count,
    n_cells + 1), holds the bracket up to each boundary.
    """
    if U.ndim != 2 or U.shape != V.shape or U.shape[1] != grid.n_cells + 1:
        raise ValueError(
            f"need (count, {grid.n_cells + 1}) boundary-sampled arrays of matching shape, got {U.shape} and {V.shape}"
        )
    base = U[:, :1] * V[:, :1]
    return np.concatenate(
        [base, base + np.cumsum(np.diff(U, axis=1) * np.diff(V, axis=1), axis=1)], axis=1
    )


def semimartingale_decomposition_check(
    q: np.ndarray, y: np.ndarray, batch: PathBatch, b: int
) -> np.ndarray:
    """Residual of y_t at t = t_b, sampled on batch, against its forward sum and brackets.

    q is the integrand sampled at reversed boundaries 0..n, shape (count,
    n + 1), and y holds one value per path.  The decomposition reads y_t =
    (forward sum of the reversed integrand) - bracket at 1 + bracket at
    1 - t, with the bracket taken between q and the reversed path; 1 - t
    is reversed boundary n - b.  The forward sum pairs the increment of
    forward cell k with q at reversed boundary n + 1 - k (the left
    endpoint in forward time).  The residual y - (sum - b_1 + b_{1-t})
    collects pure quadratic-variation noise and vanishes in probability as
    the grid refines.
    """
    grid = batch.grid
    grid.check_interval(0, b)
    n = grid.n_cells
    q = np.asarray(q, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if q.shape != (batch.count, n + 1) or y.shape != (batch.count,):
        raise ValueError(
            f"need q of shape ({batch.count}, {n + 1}) and y of shape ({batch.count},), got {q.shape} and {y.shape}"
        )

    ito = np.zeros(batch.count)
    for k in range(1, b + 1):
        ito += q[:, n + 1 - k] * batch.increments[:, k - 1]

    # reversed cell j holds the increment of forward cell n + 1 - j
    prods = np.diff(q, axis=1) * batch.increments[:, ::-1]
    bracket_full = np.sum(prods, axis=1)
    bracket_tail = np.sum(prods[:, : n - b], axis=1)
    return y - (ito - bracket_full + bracket_tail)
