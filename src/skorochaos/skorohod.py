"""Skorohod integrals of chaos-valued integrands, exactly, on the cell grid.

An integrand is a process u that is constant on each grid cell with chaos
values; its Skorohod integral over (0, t_b] for a boundary index b is
another finite chaos functional, obtained by symmetrizing one extra
variable into each kernel:

    K_l(b)(mu) = (1/l) * sum over positions i with cell mu_i <= b of
                 g_{l-1}(mu without mu_i ; mu_i),

plus a first-order term from the deterministic part of u.  On a finite
grid this map is exact, so the objects built here (integral processes,
conditional-expectation defects, region kernels, increment energies) are
algebra, not approximation.  The only approximations in this module are
the ones under study: replacing an integrand by conditioned step averages
and comparing integral processes.

The module also builds the integrand v of the Ito-Skorohod form of the
integral process: v_a = u_a plus the integral against the noise of the
derivative of u_s in the cell of a over s up to a.  Half weight is given
to the diagonal cell s = a, which realizes the cell average of the exact
integrand and is killed by the conditioning projections downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chaos import ChaosFunctional, conditional_expectation, eval_many, first_order, multiply, sum_functionals
from .grid import Grid, Partition, is_index
from .kernels import (
    SymKernel,
    ValueTable,
    add_cell,
    conditioned_sums,
    move_cell,
    region_kernels,
    restrict_below_count,
    value_table,
)
from .paths import PathBatch, StepFunction

__all__ = [
    "ChaosProcess",
    "StepProcess",
    "SkorohodProcess",
    "brownian_terminal_process",
    "brownian_path_process",
    "skorohod_process",
    "martingale_defect",
    "max_martingale_defect",
    "ito_skorohod_integrand",
    "step_approximation",
    "conditioned_product_process",
    "projected_synthesis_process",
    "max_increment_energy",
    "extract_region_kernels",
    "resynthesize",
    "resynthesis_residual",
    "region_energy_bound",
]


class ChaosProcess:
    """A process constant on grid cells with chaos-functional values."""

    __slots__ = ("grid", "functionals")

    def __init__(self, grid: Grid, functionals: Sequence[ChaosFunctional]):
        functionals = tuple(functionals)
        if len(functionals) != grid.n_cells:
            raise ValueError(f"need one functional per cell, got {len(functionals)}")
        for F in functionals:
            if F.grid != grid:
                raise ValueError("functional grid differs from process grid")
        self.grid = grid
        self.functionals = functionals

    @classmethod
    def constant(cls, grid: Grid, F: ChaosFunctional) -> "ChaosProcess":
        return cls(grid, [F] * grid.n_cells)

    def at_cell(self, k: int) -> ChaosFunctional:
        k = self.grid.check_cell(k)
        return self.functionals[k - 1]

    def add(self, other: "ChaosProcess") -> "ChaosProcess":
        self._check(other)
        return ChaosProcess(self.grid, [a.add(b) for a, b in zip(self.functionals, other.functionals)])

    def sub(self, other: "ChaosProcess") -> "ChaosProcess":
        self._check(other)
        return ChaosProcess(self.grid, [a.sub(b) for a, b in zip(self.functionals, other.functionals)])

    def max_order(self) -> int:
        return max((F.max_order for F in self.functionals), default=0)

    def sobolev_norm_sq(self) -> float:
        """L2 norm of the process plus L2 norm of its derivative field.

        By the isometry this is sum_cells delta * (mean^2 +
        sum_j (1 + j) j! ||g_j||^2) for the stored kernels.
        """
        total = 0.0
        for F in self.functionals:
            s = F.mean**2
            for j, f in F.kernels.items():
                s += (1 + j) * math.factorial(j) * f.norm_sq()
            total += s
        return total * self.grid.delta

    def _check(self, other: "ChaosProcess") -> None:
        if other.grid != self.grid:
            raise ValueError("processes live on different grids")

    def __repr__(self) -> str:
        return f"ChaosProcess(cells={self.grid.n_cells}, max_order={self.max_order()})"


def brownian_terminal_process(grid: Grid) -> ChaosProcess:
    """u_a = X_1 for every a: the standard nonadapted example."""
    return ChaosProcess.constant(grid, first_order(StepFunction.constant(grid, 1.0)))


def brownian_path_process(grid: Grid) -> ChaosProcess:
    """u_a = X_a, averaged over each cell: weight 1 before, 1/2 on it."""
    fs = []
    for k in grid.cells():
        values = np.zeros(grid.n_cells)
        values[: k - 1] = 1.0
        values[k - 1] = 0.5
        fs.append(first_order(StepFunction(grid, values)))
    return ChaosProcess(grid, fs)


@dataclass(frozen=True)
class StepProcess:
    """Chaos values held constant on partition intervals.

    Synthesis formulas assume each value has no kernel support in its own
    interval; the constructor enforces that.
    """

    grid: Grid
    partition: Partition
    values: tuple[ChaosFunctional, ...]

    def __post_init__(self):
        if self.partition.grid != self.grid:
            raise ValueError("partition and process live on different grids")
        if len(self.values) != self.partition.n_intervals:
            raise ValueError("need one functional per partition interval")
        for (lo, hi), F in zip(self.partition.intervals(), self.values):
            if F.grid != self.grid:
                raise ValueError("functional grid differs from process grid")
            if any(lo < c <= hi for c in F.cells()):
                raise ValueError(f"step value on cells ({lo}, {hi}] has kernel support inside its interval")

    def as_process(self) -> ChaosProcess:
        fs: list[ChaosFunctional] = []
        for (lo, hi), F in zip(self.partition.intervals(), self.values):
            fs.extend([F] * (hi - lo))
        return ChaosProcess(self.grid, fs)


class SkorohodProcess:
    """t -> integral of u over (0, t], one chaos functional per boundary."""

    __slots__ = ("grid", "functionals", "_tables")

    def __init__(self, grid: Grid, functionals: Sequence[ChaosFunctional]):
        functionals = tuple(functionals)
        if len(functionals) != grid.n_cells + 1:
            raise ValueError("need one functional per boundary, 0..n_cells")
        for F in functionals:
            if F.grid != grid:
                raise ValueError("functional grid differs from process grid")
        self.grid = grid
        self.functionals = functionals
        self._tables: dict[int, ValueTable] = {}

    def at_boundary(self, i: int) -> ChaosFunctional:
        n = self.grid.n_cells
        if not (is_index(i) and 0 <= i <= n):
            raise ValueError(f"boundary index {i!r} out of range: need integer boundary indices 0..{n}")
        return self.functionals[i]

    def orders(self) -> list[int]:
        """The kernel orders that some snapshot stores, ascending."""
        return sorted({n for F in self.functionals for n in F.kernels})

    def value_table(self, order: int) -> ValueTable:
        """The order-``order`` kernels of all snapshots as a ``ValueTable``, read once per process."""
        table = self._tables.get(order)
        if table is None:
            table = value_table(self.grid, order, [F.kernels.get(order) for F in self.functionals])
            self._tables[order] = table
        return table

    def sub(self, other: "SkorohodProcess") -> "SkorohodProcess":
        if other.grid != self.grid:
            raise ValueError("processes live on different grids")
        pieces = [a.sub(b) for a, b in zip(self.functionals, other.functionals)]
        return SkorohodProcess(self.grid, pieces)

    def eval_batch(self, batch: PathBatch) -> np.ndarray:
        """Pathwise values at every boundary, shape (count, n_cells + 1)."""
        return eval_many(self.functionals, batch).T

    def eval_at(self, batch: PathBatch, *indices: np.ndarray) -> np.ndarray:
        """Pathwise values at per-path boundaries, shape (len(indices), count).

        Row i holds Y at boundary indices[i][p] on path p.  The paths are
        grouped by their tuple of indices, and each group is evaluated in
        one ``eval_many`` call on its own rows of the batch, gathered when
        that group's turn comes, so the values at a path's boundaries share
        their Hermite products.  A path's value depends only on its own
        increments, so every entry equals the matching entry of
        ``eval_batch`` bit for bit.
        """
        n = self.grid.n_cells
        stacked = np.empty((len(indices), batch.count), dtype=np.int64)
        for row, idx in zip(stacked, indices):
            idx = np.asarray(idx)
            if idx.dtype.kind not in "iu":
                raise ValueError(f"boundary indices need an integer dtype, got {idx.dtype}")
            if idx.shape != (batch.count,):
                raise ValueError(f"need one boundary index per path, got shape {idx.shape}")
            if idx.size and not (0 <= idx.min() and idx.max() <= n):
                raise ValueError(f"boundary index out of range 0..{n}")
            row[:] = idx
        out = np.empty(stacked.shape)
        if not stacked.size:
            return out
        # sort the paths by index tuple once, so each group is a slice of the order
        order = np.lexsort(stacked[::-1])
        ordered = stacked[:, order]
        cuts = [0, *(np.flatnonzero(np.any(ordered[:, 1:] != ordered[:, :-1], axis=0)) + 1), batch.count]
        for a, b in zip(cuts, cuts[1:]):
            sub = PathBatch(batch.grid, batch.increments.take(order[a:b], axis=0))
            out[:, order[a:b]] = eval_many([self.functionals[i] for i in ordered[:, a]], sub)
        return out

    def __repr__(self) -> str:
        return f"SkorohodProcess(cells={self.grid.n_cells})"


def skorohod_process(u: ChaosProcess) -> SkorohodProcess:
    """The integrals of u over (0, t_b] for every boundary b, cell by cell.

    Over cell c the integral adds the cell to every kernel of u_c (and
    turns the mean into a first-order term); the sums run in cell order,
    and the kernels are snapshotted at each boundary.
    """
    grid = u.grid
    first: SymKernel | None = None
    higher: dict[int, SymKernel] = {}
    out = [ChaosFunctional(grid, 0.0, {})]
    for c, F in enumerate(u.functionals, 1):
        if F.mean != 0.0:
            k = SymKernel(grid, 1, {(c,): F.mean})
            first = k if first is None else first.add(k)
        for j, g in F.kernels.items():
            k = add_cell(g, c)
            higher[j + 1] = higher[j + 1].add(k) if j + 1 in higher else k
        out.append(ChaosFunctional(grid, 0.0, {1: first, **higher} if first is not None else higher))
    return SkorohodProcess(grid, out)


# martingale_defect and resynthesize are the per-pair and rebuilt-process
# forms of max_martingale_defect and resynthesis_residual.  The experiments
# run the sweeps; these stay as the tests' oracles and as names the
# benchmark tracer wraps (perfbench/tracing.py).
def martingale_defect(Y: SkorohodProcess, a: int, b: int) -> float:
    """Size of E[Y_b - Y_a | increments outside (a, b]]; zero exactly.

    a <= b are boundary indices.  Returns ``max_abs()`` of the conditioned
    difference: the largest of its |mean| and its surviving |kernel
    values|.  ``max_martingale_defect`` gives the largest over all pairs in
    one sweep, bit for bit.
    """
    Y.grid.check_interval(a, b)
    return conditional_expectation(Y.at_boundary(b).sub(Y.at_boundary(a)), a, b).max_abs()


def max_martingale_defect(Y: SkorohodProcess) -> float:
    """max(martingale_defect(Y, a, b) for 0 <= a < b <= n_cells), bit for bit.

    Write Y_x(mu) for the order-|mu| kernel of Y at boundary x, 0.0 where
    it stores none.  The defect of (a, b) is the largest |fl(Y_b(mu) -
    Y_a(mu))| over the multisets mu that the conditioning keeps, and over
    the mean, which it always keeps.  It keeps mu exactly when no cell of
    mu lies in (a, b], that is when a and b lie in the same gap between
    consecutive cells of mu.  So each multiset is read once per gap, not
    once per pair.  Rounding to nearest is monotone and odd, so over the
    pairs in one gap the largest |fl(Y_b(mu) - Y_a(mu))| is fl(max - min)
    of Y_x(mu) over the gap's boundaries, with equality at the pair that
    holds the max and the min.  The mean has one gap, 0..n_cells.  Every
    candidate is a nonnegative float and a max of such floats is one of
    them, so the sweep returns the same float as the per-pair maximum.
    """
    means = [F.mean for F in Y.functionals]
    worst = max(means) - min(means)
    for l in Y.orders():
        worst = max(worst, Y.value_table(l).max_gap_spread())
    return worst


def ito_skorohod_integrand(u: ChaosProcess) -> ChaosProcess:
    """The integrand whose forward-integral form matches the integral of u.

    v_a = u_a + (integral over s up to a of the derivative of u_s in the
    cell of a, against the noise).  On the grid this adds, for each order
    j and each target multiset rho,

        sum over positions i of g_j((rho minus rho_i) + {a}; rho_i) * w,

    with w = 1 when the source cell is before a, 1/2 on the diagonal cell
    itself (the cell average of the exact integrand), 0 after.
    """
    grid = u.grid
    out: list[ChaosFunctional] = []
    for a in grid.cells():
        base = u.at_cell(a)
        add: dict[int, SymKernel] = {}
        for cs in range(1, a + 1):
            w = 1.0 if cs < a else 0.5
            for j, g in u.at_cell(cs).kernels.items():
                if any(a in mu for mu, _ in g.items()):
                    k = move_cell(g, a, cs, w)
                    add[j] = add[j].add(k) if j in add else k
        kernels = dict(base.kernels)
        for j, k in add.items():
            kernels[j] = kernels[j].add(k) if j in kernels else k
        out.append(ChaosFunctional(grid, base.mean, kernels))
    return ChaosProcess(grid, out)


def step_approximation(v: ChaosProcess, partition: Partition) -> StepProcess:
    """Average v over each interval, conditioned on the outside increments.

    F_i = mean over cells s in (t_i, t_{i+1}] of E[v_s | increments
    outside the interval].  The projection removes every kernel cell
    inside the interval, which makes the step value usable in synthesis
    and independent of the within-cell convention of v.
    """
    if partition.grid != v.grid:
        raise ValueError("partition and process live on different grids")
    grid = v.grid
    values = []
    for lo, hi in partition.intervals():
        acc = sum_functionals(grid, (conditional_expectation(v.at_cell(c), lo, hi) for c in range(lo + 1, hi + 1)))
        values.append(acc.scaled(1.0 / (hi - lo)))
    return StepProcess(grid, partition, tuple(values))


def conditioned_product_process(grid: Grid, pieces: Sequence[tuple[int, int, ChaosFunctional]]) -> SkorohodProcess:
    """Z_b = sum over the pieces (lo, hi, P) with lo < b of E[P | increments outside (min(b, hi), max(b, hi)]].

    Every multiset of a P has exactly one cell in (lo, hi]; the kernels
    are summed by ``kernels.conditioned_sums``.  Conditioning keeps the
    mean, so the mean of Z_b is 0.0 plus the means of those pieces in turn.
    """
    sums = conditioned_sums(grid, [(lo, hi, P.kernels) for lo, hi, P in pieces])
    snapshots = []
    for b, kernels in enumerate(sums):
        mean = 0.0
        for lo, _, P in pieces:
            if lo < b:
                mean += P.mean
        snapshots.append(ChaosFunctional(grid, mean, kernels))
    return SkorohodProcess(grid, snapshots)


def projected_synthesis_process(step: StepProcess) -> SkorohodProcess:
    """The conditioned two-sided approximation built from a step process.

    At a boundary time t the value is

        sum_i E[F_i | increments outside (t_i, max(t_{i+1}, t)]]
              * (X_{t ^ t_{i+1}} - X_{t ^ t_i}),

    so the coefficient of every interval keeps losing the increments of
    (t_{i+1}, t] as t moves past it.  This re-projection is what turns the
    plain integral of the step process into a sum of products of a forward
    martingale and a backward one; without it the approximation does not
    converge in increment energy.

    Each term is one product, conditioned.  F_i stores no cell of its own
    interval, so it is its own conditioning on the outside increments, and
    with P_i = F_i * (X_{t_{i+1}} - X_{t_i}) the term at t is
    E[P_i | increments outside (min(t, t_{i+1}), max(t, t_{i+1})]].  So P_i
    is built once per interval, expanded exactly (the contraction terms
    vanish because coefficient and increment never share a cell), and
    ``conditioned_product_process`` keeps at each boundary the multisets
    that survive there.  The values, each order's key order and the means
    are those of the per-boundary products summed in interval order.  The
    order of the orders in a snapshot can differ from that sum when a
    coefficient stores its orders out of ascending order; the split check
    reads only ``max_abs()`` of a difference, which does not depend on it.
    """
    grid = step.grid
    pieces = [
        (lo, hi, multiply(F, first_order(StepFunction.indicator(grid, lo, hi))))
        for (lo, hi), F in zip(step.partition.intervals(), step.values)
    ]
    return conditioned_product_process(grid, pieces)


def _increment_second_moment(Y: SkorohodProcess, lo: int, hi: int) -> float:
    """E[(Y_hi - Y_lo)^2] from the value tables.

    With D = Y.at_boundary(hi).sub(Y.at_boundary(lo)) this is D.mean**2 +
    D.variance() bit for bit, the oracle the tests hold it to.  ``sub``
    stores D under hi's kernel orders, then lo's others;
    ``ValueTable.increment_norm_sq`` gives each kernel's norm.
    """
    hi_f, lo_f = Y.functionals[hi], Y.functionals[lo]
    variance = 0
    for n in [*hi_f.kernels, *(n for n in lo_f.kernels if n not in hi_f.kernels)]:
        variance += math.factorial(n) * Y.value_table(n).increment_norm_sq(lo, hi)
    mean = hi_f.mean + lo_f.mean * -1.0
    return mean**2 + variance


def max_increment_energy(Y: SkorohodProcess) -> float:
    """Max over dyadic partitions of sum_j E[(Y_{t_{j+1}} - Y_{t_j})^2].

    The family runs from the trivial partition {0, 1} down to single
    cells; every expectation is computed from the kernels, through the
    process's value tables.
    """
    return max(
        sum(_increment_second_moment(Y, lo, hi) for lo, hi in part.intervals())
        for part in Partition.dyadic_family(Y.grid)
    )


def extract_region_kernels(u: ChaosProcess, Y: SkorohodProcess) -> dict[tuple[int, int], SymKernel]:
    """Kernels f_{l,q} of the integral process by count of cells below t.

    f_{l,q}(mu) = (1/l) * sum over the q smallest positions i of
    g_{l-1}(mu minus mu_(i); mu_(i)), defined for every multiset including
    diagonal ones.  On the region where exactly q cells of mu lie at or
    before t this equals the integral's order-l kernel at time t.  Y (the
    integral of u) supplies the orders and multisets, u the values;
    ``resynthesis_residual`` is the check that they are Y's values, since
    the process ``resynthesize`` rebuilds must equal Y at every boundary.
    """
    grid = u.grid
    out: dict[tuple[int, int], SymKernel] = {}
    for l in range(1, Y.at_boundary(grid.n_cells).max_order + 1):
        snapshots = (F.kernels[l] for F in Y.functionals if l in F.kernels)
        parts = [F.mean if l == 1 else F.kernels.get(l - 1) for F in u.functionals]
        out.update(((l, q), f) for q, f in enumerate(region_kernels(grid, l, snapshots, parts)))
    return out


def resynthesize(grid: Grid, kernels: dict[tuple[int, int], SymKernel]) -> SkorohodProcess:
    """Rebuild the integral process from its region kernels."""
    orders = sorted({l for l, _ in kernels})
    snapshots = []
    for b in range(grid.n_cells + 1):
        ks: dict[int, SymKernel] = {}
        for l in orders:
            # the count below t picks one q for each multiset, so the pieces are disjoint
            ks[l] = SymKernel.zero(grid, l)
            for q in range(0, l + 1):
                if (l, q) in kernels:
                    ks[l] = ks[l].add(restrict_below_count(kernels[l, q], q, b))
        snapshots.append(ChaosFunctional(grid, 0.0, ks))
    return SkorohodProcess(grid, snapshots)


def resynthesis_residual(Y: SkorohodProcess, kernels: dict[tuple[int, int], SymKernel]) -> float:
    """max over b of |Y_b - resynthesize(grid, kernels)_b| coefficient by coefficient, bit for bit.

    The rebuilt process is never built: at boundary b it holds
    f_{l,q(mu,b)}(mu) at each multiset mu, q(mu,b) the count of mu's cells
    at or before b, and mean 0.0.  So the residual is the largest
    |Y_b(mu) - f_{l,q(mu,b)}(mu)| over every boundary, order and multiset
    that Y or a region kernel stores (0.0 where none does), and |mean of
    Y_b|.  Every candidate is a nonnegative float, so the largest is the
    float that ``Y.sub(resynthesize(grid, kernels))`` gives as the largest
    ``max_abs()`` over its snapshots.
    """
    by_order: dict[int, dict[int, SymKernel]] = {}
    for (l, q), f in kernels.items():
        by_order.setdefault(l, {})[q] = f
    worst = max(abs(F.mean) for F in Y.functionals)
    for l in sorted(set(Y.orders()) | set(by_order)):
        worst = max(worst, Y.value_table(l).max_region_gap(by_order.get(l, {})))
    return worst


def region_energy_bound(kernels: dict[tuple[int, int], SymKernel]) -> float:
    """sum_l l! sum_q ||f_{l,q+1} - f_{l,q}||^2 with f_{l,0} = 0.

    This quantity is dominated by the max increment energy of the
    integral process; it is the exact-model face of the variation bound.
    An order l counts when any f_{l,q} is stored; an absent one reads 0.
    """
    total = 0.0
    grids = {l: f.grid for (l, _), f in kernels.items()}
    for l, grid in sorted(grids.items()):
        prev = SymKernel.zero(grid, l)
        for q in range(1, l + 1):
            cur = kernels.get((l, q), SymKernel.zero(grid, l))
            total += math.factorial(l) * cur.sub(prev).norm_sq()
            prev = cur
    return total

