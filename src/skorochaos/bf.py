"""Two-sided martingale summands: forward factor times backward factor.

A functional measurable in the increments outside a window (a, a'] splits
as a finite sum of products G1 * G2 with G1 supported at or before a and
G2 supported after a'.  Attaching the window increment to G1 gives, for
each summand, a pair of genuine martingales:

    M_t = E[G1 * (X_{a'} - X_a) | increments up to t]      (forward)
    N_t = E[G2 | increments after max(t, a')]              (backward)

and the approximation process is the sum over windows and summands of
M_t N_t.  Kernel-wise the sum at each boundary coincides exactly with the
conditioned product-sum form of the step approximation, so both roads to
the two-sided process agree pathwise, not just in law.

Each summand's values are one product, conditioned.  With P = G1 *
(X_{a'} - X_a) * G2, every multiset of P has exactly one cell in the
window, and M_t N_t = E[P | increments outside (min(t, a'), max(t, a')]]:
before a' the window is cut at t, after a' the backward factor loses the
increments of (a', t].  So ``BFProcess.as_skorohod`` builds P once per
summand and keeps, at each boundary, the multisets that survive there.

The split itself is a rank factorization of the coefficient matrix of the
functional in the product basis of disjoint Wick monomials, with complete
pivoting so the construction is deterministic and stops at the exact rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chaos import ChaosFunctional, conditional_expectation, first_order, multiply
from .grid import Grid, Partition
from .kernels import SymKernel
from .paths import StepFunction
from .skorohod import (
    ChaosProcess,
    SkorohodProcess,
    StepProcess,
    conditioned_product_process,
    step_approximation,
)

__all__ = [
    "BFSummand",
    "BFProcess",
    "split_two_sided",
    "bf_from_step",
    "two_sided_approximation",
]

_SPLIT_TOL = 1e-12


@dataclass(frozen=True)
class BFSummand:
    """One product term G1 * G2 attached to the window (lo, hi] (boundaries).

    forward has kernel support in cells at or before lo, backward in cells
    after hi; the window increment itself belongs to the forward factor.
    """

    grid: Grid
    lo: int
    hi: int
    forward: ChaosFunctional
    backward: ChaosFunctional

    def __post_init__(self):
        if not 0 <= self.lo < self.hi <= self.grid.n_cells:
            raise ValueError(f"bad window boundaries ({self.lo}, {self.hi}]")
        if any(c > self.lo for c in self.forward.cells()):
            raise ValueError("forward factor has support past the window start")
        if any(c <= self.hi for c in self.backward.cells()):
            raise ValueError("backward factor has support before the window end")

    def forward_martingale(self, b: int) -> ChaosFunctional:
        """E[G1 * window increment | increments up to boundary b]: G1 times the increment over (lo, min(b, hi)]."""
        if b <= self.lo:
            return ChaosFunctional(self.grid, 0.0, {})
        return multiply(self.forward, first_order(StepFunction.indicator(self.grid, self.lo, min(b, self.hi))))

    def backward_martingale(self, b: int) -> ChaosFunctional:
        """E[G2 | increments after boundary max(b, hi)]."""
        return conditional_expectation(self.backward, 0, max(b, self.hi))

    def value_at(self, b: int) -> ChaosFunctional:
        """The summand M_t N_t at a boundary, as an exact product."""
        fwd = self.forward_martingale(b)
        if not fwd.kernels and fwd.mean == 0.0:
            return fwd
        return multiply(fwd, self.backward_martingale(b))


@dataclass(frozen=True)
class BFProcess:
    """A finite sum of two-sided summands, one family per window."""

    grid: Grid
    summands: tuple[BFSummand, ...]

    def as_skorohod(self) -> SkorohodProcess:
        """The sum of the summands' values M_t N_t at every boundary.

        Each summand's values are one product conditioned: with P = G1 *
        (X_hi - X_lo) * G2, M_t N_t = E[P | increments outside (min(t, hi),
        max(t, hi)]], so P is built once per summand.  Every snapshot is bit
        for bit the sum of the summands' ``value_at`` in summand order: its
        mean, each order's key order and values, and, when every factor
        stores its orders ascending as ``split_two_sided``'s do, the order
        of its orders.
        """
        pieces = [(s.lo, s.hi, multiply(s.forward_martingale(s.hi), s.backward)) for s in self.summands]
        return conditioned_product_process(self.grid, pieces)


def _basis_index(multisets: set[tuple[int, ...]]) -> list[tuple[int, ...]]:
    return sorted(multisets, key=lambda mu: (len(mu), mu))


def split_two_sided(F: ChaosFunctional, lo: int, hi: int) -> list[tuple[ChaosFunctional, ChaosFunctional]]:
    """Factor F into pairs (G1, G2) across the window (lo, hi].

    F must have no kernel support inside the window.  In the basis of
    products of a left and a right Wick monomial the coefficient of the
    pair (mu_L, mu_R) is C(n, |mu_L|) f_n(mu_L + mu_R); the matrix of
    those coefficients is factored by complete-pivot elimination, one
    rank-one term per pivot, which terminates at the exact rank.  The sum
    of the exact products of the returned pairs reproduces F up to the
    elimination tolerance _SPLIT_TOL.
    """
    grid = F.grid
    lefts: set[tuple[int, ...]] = {()}
    rights: set[tuple[int, ...]] = {()}
    entries: list[tuple[tuple[int, ...], tuple[int, ...], float]] = []
    for n, f in F.kernels.items():
        for mu, v in f.items():
            mu_l = tuple(c for c in mu if c <= lo)
            mu_r = tuple(c for c in mu if c > lo)
            if any(c <= hi for c in mu_r):
                raise ValueError(f"kernel support {mu} inside the window ({lo}, {hi}]")
            lefts.add(mu_l)
            rights.add(mu_r)
            entries.append((mu_l, mu_r, math.comb(n, len(mu_l)) * v))
    left_basis = _basis_index(lefts)
    right_basis = _basis_index(rights)
    left_ix = {mu: i for i, mu in enumerate(left_basis)}
    right_ix = {mu: j for j, mu in enumerate(right_basis)}
    M = np.zeros((len(left_ix), len(right_ix)))
    M[0, 0] = F.mean
    for mu_l, mu_r, v in entries:
        M[left_ix[mu_l], right_ix[mu_r]] += v

    pairs = []
    R = M.copy()
    for _ in range(min(R.shape)):
        flat = np.argmax(np.abs(R))
        i, j = np.unravel_index(flat, R.shape)
        piv = R[i, j]
        if abs(piv) <= _SPLIT_TOL:
            break
        col = R[:, j].copy()
        row = R[i, :].copy()
        R -= np.outer(col, row) / piv
        pairs.append((_vector_to_functional(grid, left_basis, col / piv),
                      _vector_to_functional(grid, right_basis, row)))
    return pairs


def _vector_to_functional(
    grid: Grid, basis: Sequence[tuple[int, ...]], coeffs: np.ndarray
) -> ChaosFunctional:
    mean = 0.0
    by_order: dict[int, dict[tuple[int, ...], float]] = {}
    for mu, c in zip(basis, coeffs):
        if c == 0.0:
            continue
        if not mu:
            mean += c
        else:
            by_order.setdefault(len(mu), {})[mu] = c
    kernels = {n: SymKernel(grid, n, d) for n, d in by_order.items()}
    return ChaosFunctional(grid, mean, kernels)


def bf_from_step(step: StepProcess) -> BFProcess:
    """Split every interval value of a step process into two-sided summands."""
    summands: list[BFSummand] = []
    for (lo, hi), F in zip(step.partition.intervals(), step.values):
        for g1, g2 in split_two_sided(F, lo, hi):
            summands.append(BFSummand(step.grid, lo, hi, g1, g2))
    return BFProcess(step.grid, tuple(summands))


def two_sided_approximation(v: ChaosProcess, partition: Partition) -> tuple[StepProcess, BFProcess]:
    """From a forward-form integrand to its two-sided approximation.

    v is the forward-form integrand of the integral, as
    ``ito_skorohod_integrand`` builds it; one v serves every partition.
    Returns its conditioned step average on the partition and the summand
    family.
    """
    step = step_approximation(v, partition)
    return step, bf_from_step(step)
