"""Backward representations driven by the reversed path X̂_t = X_1 - X_{1-t}.

Reversing time swaps cell k with cell n + 1 - k, and a functional's
kernels reverse coordinatewise, so every statement about the reversed
path is again exact kernel algebra.  The pieces here:

  * the difference representation Y_t = F - E[F | increments in [t, 1]],
    whose kernels are f_n minus their projection on the tail;
  * its predictable integrand in reversed time, one conditioned Malliavin
    derivative per reversed cell;
  * the discrete backward Ito sum against the reversed increments, whose
    mean-square gap to the exact representation decays like 1/N;
  * closed Hermite forms for F built from a single step function;
  * pathwise quadratic covariation estimates on dyadic partitions and the
    forward-plus-bracket decomposition of the representation, whose
    residual is a pure quadratic-variation fluctuation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chaos import (
    ChaosFunctional,
    conditional_expectation,
    eval_functional,
    eval_many,
    hermite_functional,
    hermite_values,
    malliavin_derivative,
)
from .grid import Grid, TimeSet
from .kernels import reverse_kernel
from .paths import PathBatch, StepFunction, isonormal_eval, reverse_batch
from .skorohod import ChaosProcess

__all__ = [
    "reverse_functional",
    "BackwardRepresentation",
    "clark_ocone_integrand",
    "backward_ito_eval",
    "hermite_projection",
    "QuadraticCovariation",
    "quadratic_covariation",
    "PhiSpec",
    "DecompositionReport",
    "semimartingale_decomposition_check",
]


def reverse_functional(F: ChaosFunctional) -> ChaosFunctional:
    """The same random variable written in reversed-path coordinates."""
    return ChaosFunctional(F.grid, F.mean, {n: reverse_kernel(f) for n, f in F.kernels.items()})


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
        known = TimeSet.from_interval(grid, grid.boundary_value(fwd_cell), 1.0)
        cells.append(reverse_functional(conditional_expectation(d, known)))
    return ChaosProcess(grid, cells)


class BackwardRepresentation:
    """F together with its tail-difference process and reversed integrand."""

    __slots__ = ("F", "phi")

    def __init__(self, F: ChaosFunctional):
        self.F = F
        self.phi = clark_ocone_integrand(F)

    def value_at(self, b: int) -> ChaosFunctional:
        """Y at boundary b: F minus its projection on cells after b."""
        grid = self.F.grid
        tail = TimeSet.from_interval(grid, grid.boundary_value(b), 1.0)
        return self.F.sub(conditional_expectation(self.F, tail))

    def reversed_value_at(self, b: int) -> ChaosFunctional:
        return reverse_functional(self.value_at(b))


def backward_ito_eval(phi: ChaosProcess, batch: PathBatch, t: float) -> np.ndarray:
    """Discrete predictable sum over reversed cells in (1 - t, 1].

    phi must be written in reversed coordinates and adapted: the value at
    reversed cell j may only depend on reversed increments before j.
    """
    grid = phi.grid
    n = grid.n_cells
    start = grid.boundary_index(1.0 - t)
    for j in range(start + 1, n + 1):
        if any(c >= j for c in phi.at_cell(j).cells()):
            raise ValueError(f"integrand at reversed cell {j} is not predictable")
    rev = reverse_batch(batch)
    window = list(range(start + 1, n + 1))
    if not window:
        return np.zeros(batch.count)
    vals = eval_many([phi.at_cell(j) for j in window], rev)
    out = np.zeros(batch.count)
    for row, j in enumerate(window):
        out += vals[row] * rev.increments[:, j - 1]
    return out


def hermite_projection(
    n: int, h: StepFunction, t: float, batch: PathBatch
) -> tuple[np.ndarray, np.ndarray | None]:
    """Both sides of the closed tail-projection identity for I_n(h^(x)n).

    lhs is the pathwise kernel-side difference representation at t; rhs is
    n! (He_n(X(h)) - ||h 1_(t,1]||^n He_n(X(h tail)/||h tail||)), exact for
    unit h.  When the tail norm vanishes the closed form degenerates and
    None is returned for rhs.
    """
    if abs(h.norm() - 1.0) > 1e-12:
        raise ValueError("the closed form needs a unit-norm step function")
    F = hermite_functional(h, n)
    rep = BackwardRepresentation(F)
    b = h.grid.boundary_index(t)
    lhs = eval_functional(rep.value_at(b), batch)
    tail = h.tail(t)
    tau = tail.norm()
    if tau == 0.0:
        return lhs, None
    top = isonormal_eval(batch, h)
    tt = isonormal_eval(batch, tail) / tau
    fact = math.factorial(n)
    rhs = fact * (hermite_values(n, top)[n] - tau**n * hermite_values(n, tt)[n])
    return lhs, rhs


@dataclass(frozen=True)
class QuadraticCovariation:
    """Dyadic bracket estimates for two boundary-sampled paths."""

    grid: Grid
    finest_curve: np.ndarray         # (count, n_cells + 1), cumulative
    level_totals: np.ndarray         # (depth + 1, count), coarse to fine
    levels: tuple[int, ...]

    def curve_at(self, t: float) -> np.ndarray:
        return self.finest_curve[:, self.grid.boundary_index(t)]


def quadratic_covariation(grid: Grid, U: np.ndarray, V: np.ndarray) -> QuadraticCovariation:
    """Sum of increment products over dyadic partitions, plus U_0 V_0.

    U and V hold one value per boundary.  The finest-level curve cumulates
    cell by cell; the level totals sweep the whole dyadic family for the
    usual convergence diagnostic.
    """
    if U.shape != V.shape or U.shape[-1] != grid.n_cells + 1:
        raise ValueError("need boundary-sampled arrays of matching shape")
    base = U[:, :1] * V[:, :1]
    finest = np.concatenate(
        [base, base + np.cumsum(np.diff(U, axis=1) * np.diff(V, axis=1), axis=1)], axis=1
    )
    levels = tuple(range(grid.depth + 1))
    totals = np.empty((len(levels), U.shape[0]))
    for ell in levels:
        bounds = np.arange(0, grid.n_cells + 1, grid.n_cells // (1 << ell))
        du = np.diff(U[:, bounds], axis=1)
        dv = np.diff(V[:, bounds], axis=1)
        totals[ell] = base[:, 0] + np.sum(du * dv, axis=1)
    return QuadraticCovariation(grid, finest, totals, levels)


@dataclass(frozen=True)
class PhiSpec:
    """Integrand of functional form: fn(alpha, coordinates of the reversed path).

    Each step function g contributes the coordinate X̂(g 1_[0, alpha]);
    fn is evaluated at every reversed boundary; the bracket terms assume it
    is continuously differentiable.
    """

    fn: Callable[..., np.ndarray]
    steps: tuple[StepFunction, ...] = ()

    def sample_boundaries(self, rev: PathBatch) -> np.ndarray:
        """Values at reversed boundaries 0..n, shape (count, n + 1)."""
        grid = rev.grid
        n = grid.n_cells
        coords = []
        for g in self.steps:
            inc = rev.increments * g.values
            coords.append(np.concatenate([np.zeros((rev.count, 1)), np.cumsum(inc, axis=1)], axis=1))
        out = np.empty((rev.count, n + 1))
        for m in range(n + 1):
            alpha = grid.boundary_value(m)
            out[:, m] = np.broadcast_to(
                np.asarray(self.fn(alpha, *(c[:, m] for c in coords)), dtype=np.float64),
                (rev.count,),
            )
        return out


@dataclass(frozen=True)
class DecompositionReport:
    """Pathwise pieces of the forward-plus-bracket decomposition at one t."""

    y: np.ndarray
    ito: np.ndarray
    bracket_full: np.ndarray
    bracket_tail: np.ndarray
    residual: np.ndarray

    def residual_rms(self) -> float:
        return float(np.sqrt(np.mean(self.residual**2)))


def semimartingale_decomposition_check(
    spec: PhiSpec,
    exact_y: Callable[[float, PathBatch], np.ndarray],
    batch: PathBatch,
    t: float,
) -> DecompositionReport:
    """Evaluate y_t against its forward sum and bracket corrections.

    The decomposition reads y_t = (forward sum of the reversed integrand)
    - bracket at 1 + bracket at 1 - t, with the bracket taken between the
    integrand samples and the reversed path.  The forward sum pairs the
    increment of forward cell k with the integrand sampled at reversed
    boundary n + 1 - k (the left endpoint in forward time).  The residual
    y - (sum - b_1 + b_{1-t}) collects pure quadratic-variation noise and
    vanishes in probability as the grid refines.
    """
    grid = batch.grid
    n = grid.n_cells
    b = grid.boundary_index(t)
    rev = reverse_batch(batch)
    Q = spec.sample_boundaries(rev)
    y = np.asarray(exact_y(t, batch), dtype=np.float64)

    ito = np.zeros(batch.count)
    for k in range(1, b + 1):
        ito += Q[:, n + 1 - k] * batch.increments[:, k - 1]

    dq = np.diff(Q, axis=1)
    prods = dq * rev.increments
    bracket_full = np.sum(prods, axis=1)
    tail_b = grid.boundary_index(1.0 - t)
    bracket_tail = np.sum(prods[:, :tail_b], axis=1)
    residual = y - (ito - bracket_full + bracket_tail)
    return DecompositionReport(y, ito, bracket_full, bracket_tail, residual)
