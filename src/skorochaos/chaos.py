"""Finite chaos functionals: exact evaluation, moments, derivative, products.

A functional is stored as a constant plus one symmetric kernel per order,
F = c + sum_n I_n(f_n).  On the cell grid every multiple integral reduces
to a polynomial in the increments,

    I_n(f) = n! sum_mu f(mu) delta^{n/2} prod_j He_{m_j}(dX_{c_j} / sqrt(delta)),

with He_m the probabilists' Hermite polynomials normalized so that
exp(t x - t^2 / 2) = sum_m t^m He_m(x); equivalently He_m has leading
coefficient 1/m!.  Everything here is exact given the kernels: moments
come from the isometry, the Malliavin derivative at a cell is literally
the partial derivative in that increment, conditioning on the increments
outside an interval is kernel projection, and products expand through the
multiplication formula for multiple integrals.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .grid import Grid, is_index
from .kernels import (
    KernelSum,
    SymKernel,
    contract,
    disjoint_tensor_product,
    from_step,
    project,
    remove_cell,
    tensor_power,
)
from .paths import PathBatch, StepFunction

__all__ = [
    "hermite_values",
    "ChaosFunctional",
    "sum_functionals",
    "constant_functional",
    "first_order",
    "hermite_functional",
    "eval_many",
    "malliavin_derivative",
    "conditional_expectation",
    "multiply",
]

_EVAL_BLOCK = 8192


def hermite_values(m_max: int, x: np.ndarray) -> np.ndarray:
    """He_0(x) .. He_{m_max}(x) stacked on a new leading axis.

    Uses the three-term recurrence (m + 1) He_{m+1} = x He_m - He_{m-1}.
    """
    if not (is_index(m_max) and m_max >= 0):
        raise ValueError(f"Hermite order {m_max!r} is not a nonnegative integer")
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((m_max + 1,) + x.shape, dtype=np.float64)
    out[0] = 1.0
    if m_max >= 1:
        out[1] = x
    for m in range(1, m_max):
        out[m + 1] = (x * out[m] - out[m - 1]) / (m + 1)
    return out


class ChaosFunctional:
    """Constant plus a finite stack of multiple integrals on one grid."""

    __slots__ = ("grid", "mean", "kernels")

    def __init__(self, grid: Grid, mean: float = 0.0, kernels: Mapping[int, SymKernel] | None = None):
        ks: dict[int, SymKernel] = {}
        for n, f in (kernels or {}).items():
            if f.grid != grid:
                raise ValueError("kernel grid differs from functional grid")
            if f.order != n:
                raise ValueError(f"kernel of order {f.order} filed under {n}")
            if len(f):
                ks[n] = f
        mean = float(mean)
        if not math.isfinite(mean):
            raise ValueError(f"functional mean {mean!r} is not finite")
        self.grid = grid
        self.mean = mean
        self.kernels = ks

    @property
    def max_order(self) -> int:
        return max(self.kernels, default=0)

    def cells(self) -> set[int]:
        """The cells that some kernel of the functional touches."""
        return set().union(*(f.cells() for f in self.kernels.values()))

    def covariance(self, other: "ChaosFunctional") -> float:
        self._check(other)
        return sum(
            math.factorial(n) * f.inner(other.kernels[n])
            for n, f in self.kernels.items()
            if n in other.kernels
        )

    def variance(self) -> float:
        """Var F = Cov(F, F); with ``covariance``, the isometry's moments, which the tests' oracles read."""
        return self.covariance(self)

    def scaled(self, c: float) -> "ChaosFunctional":
        return ChaosFunctional(self.grid, self.mean * c, {n: f.scaled(c) for n, f in self.kernels.items()})

    def add(self, other: "ChaosFunctional") -> "ChaosFunctional":
        self._check(other)
        ks = dict(self.kernels)
        for n, g in other.kernels.items():
            ks[n] = ks[n].add(g) if n in ks else g
        return ChaosFunctional(self.grid, self.mean + other.mean, ks)

    def sub(self, other: "ChaosFunctional") -> "ChaosFunctional":
        """``add(other.scaled(-1.0))`` bit for bit: fl(a + (-b)) = fl(a - b)."""
        self._check(other)
        ks = dict(self.kernels)
        for n, g in other.kernels.items():
            ks[n] = ks[n].sub(g) if n in ks else g.scaled(-1.0)
        return ChaosFunctional(self.grid, self.mean - other.mean, ks)

    def max_abs(self) -> float:
        """The largest absolute coefficient: |mean| and every stored kernel value."""
        return max([abs(self.mean), *(f.max_abs() for f in self.kernels.values())])

    def _check(self, other: "ChaosFunctional") -> None:
        if other.grid != self.grid:
            raise ValueError("functionals live on different grids")

    def __repr__(self) -> str:
        orders = sorted(self.kernels)
        return f"ChaosFunctional(mean={self.mean!r}, orders={orders})"


def sum_functionals(grid: Grid, terms: Iterable[ChaosFunctional]) -> ChaosFunctional:
    """``ChaosFunctional(grid, 0.0, {}).add(F1).add(F2)...`` over the terms, bit for bit.

    The kernels go into one ``KernelSum``, so the running sum is never
    copied; the means are added in turn from 0.0.
    """
    mean = 0.0
    acc = KernelSum(grid)
    for F in terms:
        if F.grid != grid:
            raise ValueError("functionals live on different grids")
        mean += F.mean
        acc.add(F.kernels)
    return ChaosFunctional(grid, mean, acc.kernels())


def constant_functional(grid: Grid, c: float) -> ChaosFunctional:
    return ChaosFunctional(grid, c, {})


def first_order(h: StepFunction) -> ChaosFunctional:
    """I_1(h), the isonormal evaluation at a step function."""
    return ChaosFunctional(h.grid, 0.0, {1: from_step(h)})


def hermite_functional(h: StepFunction, n: int) -> ChaosFunctional:
    """I_n(h tensor n); equals n! ||h||^n He_n(X(h)/||h||) pathwise."""
    if n == 0:
        return constant_functional(h.grid, 1.0)
    return ChaosFunctional(h.grid, 0.0, {n: tensor_power(h, n)})


# ---------------------------------------------------------------------------
# evaluation on path batches

def _terms(F: ChaosFunctional) -> Iterator[tuple[tuple[int, ...], float]]:
    """(multiset, coefficient) pairs in evaluation order: by order, then ``items()``."""
    for n, f in sorted(F.kernels.items()):
        base = math.factorial(n) * F.grid.delta ** (n / 2.0)
        for mu, v in f.items():
            yield mu, base * v


def _merge(order: list, pos: dict, keys: list) -> bool:
    """Splice ``keys`` into ``order`` so that they form a subsequence of it.

    A key that ``order`` lacks goes right after the key before it in
    ``keys`` (at the front when there is none), so every sequence merged
    before stays a subsequence too.  Returns False, changing nothing, when
    the keys ``order`` already holds come in another order there.
    """
    anchor, spliced = -1, {}
    for k in keys:
        p = pos.get(k)
        if p is None:
            spliced.setdefault(anchor, []).append(k)
        elif p < anchor:
            return False
        else:
            anchor = p
    if spliced:
        merged = spliced.get(-1, [])
        for i, k in enumerate(order):
            merged.append(k)
            merged.extend(spliced.get(i, ()))
        order[:] = merged
        pos.clear()
        pos.update((k, i) for i, k in enumerate(order))
    return True


def _program(functionals: Sequence[ChaosFunctional], n_cells: int) -> list[tuple[tuple[int, ...], list]]:
    """One step per distinct multiset of each group, in group order.

    A step is (Hermite table rows of its factors, [(coef, r0, r1), ...]):
    rows r0..r1-1 hold the multiset with that coefficient.  A functional
    holds a multiset at most once and members come in index order, so
    only a step's last run can end at the current row.
    """
    groups: list[tuple[list, dict, list[int]]] = []  # (order, position of each key, members)
    for fi, F in enumerate(functionals):
        keys = [mu for mu, _ in _terms(F)]
        if not keys:
            continue
        for order, pos, members in groups:
            if _merge(order, pos, keys):
                members.append(fi)
                break
        else:
            groups.append((keys, {k: i for i, k in enumerate(keys)}, [fi]))
    program = []
    for order, _, members in groups:
        steps: dict[tuple, list] = {mu: [] for mu in order}
        for fi in members:
            for mu, coef in _terms(functionals[fi]):
                adds = steps[mu]
                if adds:
                    c, r0, r1 = adds[-1]
                    # 0.0 and -0.0 compare equal but scale a term to different zeros
                    if r1 == fi and c == coef and math.copysign(1.0, c) == math.copysign(1.0, coef):
                        adds[-1] = (c, r0, fi + 1)
                        continue
                adds.append((coef, fi, fi + 1))
        program.extend((_factor_rows(mu, n_cells), adds) for mu, adds in steps.items())
    return program


def _factor_rows(mu: tuple[int, ...], n_cells: int) -> tuple[int, ...]:
    """Rows of a (order, cell) Hermite table holding the factors He_m(z_c) of mu."""
    rows: list[int] = []
    prev = None
    for c in mu:
        if c == prev:
            rows[-1] += n_cells
        else:
            rows.append(n_cells + c - 1)
            prev = c
    return tuple(rows)


def _distinct(functionals: Sequence[ChaosFunctional]) -> tuple[list[ChaosFunctional], list[int]]:
    """The functionals that evaluate differently, first seen first, and each one's index among them.

    Candidates come from a dict keyed on the mean's bits and each order's
    term count, so only functionals that may match are compared.
    """
    distinct: list[ChaosFunctional] = []
    rows: list[int] = []
    seen: dict[tuple, list[int]] = {}
    for F in functionals:
        key = (F.mean, math.copysign(1.0, F.mean), tuple(sorted((n, len(f)) for n, f in F.kernels.items())))
        candidates = seen.setdefault(key, [])
        # the key fixes the mean's bits and the orders; the kernels decide the rest
        same = (i for i in candidates if all(f.same_terms(distinct[i].kernels[n]) for n, f in F.kernels.items()))
        i = next(same, None)
        if i is None:
            i = len(distinct)
            candidates.append(i)
            distinct.append(F)
        rows.append(i)
    return distinct, rows


def eval_many(functionals: Sequence[ChaosFunctional], batch: PathBatch) -> np.ndarray:
    """Evaluate several functionals pathwise; returns (len(functionals), count).

    Each row gets exactly the float operations of evaluating its functional
    alone: start from the mean, then ``row += coef * term`` over the terms
    in order (kernels by order, then ``items()``), each term the product of
    its Hermite factors taken left to right.

    Each distinct functional is evaluated once, and its row is copied to
    the functionals that equal it.  Two functionals count as equal only
    when they would get the same float operations: the same mean bits (so
    0.0 and -0.0 stay apart) and, order by order, kernels with the same
    values in the same key order (``SymKernel.same_terms``).

    The call compiles one program for the distinct functionals.  Each
    one's multisets are merged into the order of the first group whose
    known multisets it meets in the same order (its new ones go right
    after its previous one); a functional that fits no group starts a
    new one.  So each functional's term order
    is a subsequence of its group order, and walking the group order once
    per path block visits every row's terms in that row's own order.  Each
    product is built once per block from a Hermite table laid out as
    (order, cell, path), so factors are contiguous rows; ``coef * term`` is
    formed once per run of consecutive rows that share the coefficient and
    added only into the rows that hold the multiset.  Memory stays flat in
    the path count: one Hermite table, one term and one scaled term per
    block.

    Products are shared only within one call, so a caller should pass all
    the functionals it reads on a batch together.  A path's row depends
    only on that path's increments, so evaluating a subset of the paths,
    in any order, gives the matching columns bit for bit.
    """
    for F in functionals:
        if F.grid != batch.grid:
            raise ValueError("functional and batch live on different grids")
    distinct, rows = _distinct(functionals)
    out = _evaluate(distinct, batch)
    return out if len(distinct) == len(functionals) else out[rows]


def _evaluate(functionals: Sequence[ChaosFunctional], batch: PathBatch) -> np.ndarray:
    count = batch.count
    out = np.empty((len(functionals), count), dtype=np.float64)
    out[:] = np.array([F.mean for F in functionals], dtype=np.float64)[:, None]
    n_cells = batch.grid.n_cells
    program = _program(functionals, n_cells)
    if not program:
        return out
    m_max = max(r // n_cells for factors, _ in program for r in factors)
    sqrt_d = math.sqrt(batch.grid.delta)

    for b0 in range(0, count, _EVAL_BLOCK):
        b1 = min(b0 + _EVAL_BLOCK, count)
        z = np.empty((n_cells, b1 - b0))
        np.divide(batch.increments[b0:b1].T, sqrt_d, out=z)
        table = hermite_values(m_max, z).reshape(-1, b1 - b0)
        block = out[:, b0:b1]
        term, scaled = np.empty(b1 - b0), np.empty(b1 - b0)
        for factors, adds in program:
            t = table[factors[0]]
            if len(factors) > 1:
                t = np.multiply(t, table[factors[1]], out=term)
                for r in factors[2:]:
                    t *= table[r]
            for coef, r0, r1 in adds:
                np.multiply(t, coef, out=scaled)
                block[r0:r1] += scaled
    return out


# ---------------------------------------------------------------------------
# calculus

def malliavin_derivative(F: ChaosFunctional, cell: int) -> ChaosFunctional:
    """Derivative in the increment of one cell: D_c I_n(f) = n I_{n-1}(f(., c)).

    The result is again a chaos functional; pathwise it equals the exact
    partial derivative of the evaluated functional (``eval_many``) with
    respect to that increment.
    """
    cell = F.grid.check_cell(cell)
    mean = 0.0
    ks: dict[int, SymKernel] = {}
    for n, f in F.kernels.items():
        if n == 1:
            mean += f.value((cell,))
        else:
            ks[n - 1] = remove_cell(f, cell)
    return ChaosFunctional(F.grid, mean, ks)


def conditional_expectation(F: ChaosFunctional, a: int, b: int) -> ChaosFunctional:
    """E[F | increments outside (a, b]] for boundary indices 0 <= a <= b <= n.

    Every kernel drops the multisets with a cell in (a, b].
    """
    F.grid.check_interval(a, b)
    return ChaosFunctional(F.grid, F.mean, {n: project(f, a, b) for n, f in F.kernels.items()})


def multiply(F: ChaosFunctional, G: ChaosFunctional) -> ChaosFunctional:
    """Exact pathwise product via the multiplication formula.

    I_p(f) I_q(g) = sum_r r! C(p,r) C(q,r) I_{p+q-2r}(sym(f (x)_r g)).
    Raises when a term would exceed the supported order.

    When F and G touch disjoint cells, as the forward and backward factors
    of a two-sided summand do, every contraction with r >= 1 is empty and
    the r = 0 term is ``disjoint_tensor_product``.  No contraction is then
    computed, but the two side effects of adding an empty one are repeated,
    so the result keeps its bits and its key order: an empty full
    contraction adds 0.0 to the mean, turning a mean of -0.0 into 0.0, and
    any other empty contraction files a zero kernel under its order when
    none is there yet, which fixes where that order sits in ``kernels``.
    """
    F._check(G)
    grid = F.grid
    mean = F.mean * G.mean
    acc: dict[int, SymKernel] = {}

    def put(n: int, k: SymKernel) -> None:
        acc[n] = acc[n].add(k) if n in acc else k

    for n, f in F.kernels.items():
        if G.mean != 0.0:
            put(n, f.scaled(G.mean))
    for n, g in G.kernels.items():
        if F.mean != 0.0:
            put(n, g.scaled(F.mean))
    disjoint = F.cells().isdisjoint(G.cells())
    for p, f in F.kernels.items():
        for q, g in G.kernels.items():
            for r in range(min(p, q) + 1):
                n = p + q - 2 * r
                if disjoint and r == 0:
                    put(n, disjoint_tensor_product(f, g))
                elif disjoint:
                    if n == 0:
                        mean += 0.0
                    elif n not in acc:
                        acc[n] = SymKernel.zero(grid, n)
                else:
                    coef = math.factorial(r) * math.comb(p, r) * math.comb(q, r)
                    if n == 0:
                        mean += coef * f.inner(g)
                    else:
                        put(n, contract(f, g, r).scaled(coef))
    return ChaosFunctional(grid, mean, acc)

