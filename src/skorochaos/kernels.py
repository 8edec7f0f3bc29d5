"""Symmetric piecewise-constant kernels on [0, 1]^n, stored by cell multiset.

A symmetric function that is constant on products of grid cells is
determined by its value on each sorted multiset of cell indices, so a
kernel of order n is a sparse map {(c_1 <= ... <= c_n): value}.  Stored
values are the function values themselves; counting distinct orderings of
a multiset recovers Lebesgue integrals, e.g.

    ||f||^2 = sum_mu f(mu)^2 * delta^n * n!/prod_j m_j!

where m_j are the multiplicities of mu.  The module implements the kernel
algebra needed by the chaos calculus: symmetrized tensor products and
contractions, projections that condition on the increments outside an
interval, restriction by the number of variables below a boundary, time
reversal, the cell maps of the Malliavin derivative and the Skorohod
integral, and the read-off of the Duc-Nualart region kernels f_{l,q} of
an integral process.

An integral process is read here too, one order at a time, into a
``ValueTable``: ``value_table`` reads the order-l kernels of the N+1
snapshots in one pass into a (N+1, M) float64 array over the M multisets
that any snapshot stores (0.0 where one lacks a multiset), with each
snapshot's dict key order as an index array, ``orderings(mu)`` as float
weights and the cells as an (M, l) array.  The three reductions that
``skorohod.py`` runs on a process are table methods: ``increment_norm_sq``
for the increment energy, ``max_region_gap`` for the resynthesis residual
(it reads the region kernels f_{l,0..l} into the same columns) and
``max_gap_spread`` for the martingale defect.  No other module reads the
table's layout.

The symmetrized product has one loop, ``contract``; ``sym_tensor_product``
is its depth 0.  ``disjoint_tensor_product`` is the closed form of that
loop for kernels that share no cell.

A long sum of kernels is a ``KernelSum``: it adds each stack of kernels,
one per order, into one dict per order, and gives bit for bit what a
left fold of ``SymKernel.add`` gives, without copying the running sum at
every step.  ``SymKernel.same_terms`` tells whether two kernels store the
same values in the same key order, which is when they evaluate alike.
``conditioned_sums`` sums products that each have one cell in a window,
conditioned at every boundary: it reads once per multiset the boundaries
at which the multiset survives, and at each boundary folds the survivors
into a ``KernelSum``.

This is the only module that builds, edits or checks a multiset; others
read kernels through ``items()``, ``value()``, ``len()``, ``cells()`` and
the value tables' methods.
Multisets are checked once, where they enter: the public ``SymKernel``
constructor.  The maps build their results through a private
constructor, ``SymKernel._built``, that only drops zeros.  It takes over
the dict it is handed, so every map hands it a fresh dict of Python
floats that nothing else holds and that the map never touches again: a
value that is not a ``float``, such as a ``np.float64`` from a step
function, is converted where it is made, since it would print
differently in a CSV.

Desk-scale caps: kernels accept at most MAX_CELLS cells and order at most
MAX_ORDER.  Dense constructors additionally refuse to enumerate more than
a few million multisets.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from numbers import Integral
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .grid import Grid, is_index
from .paths import StepFunction

__all__ = [
    "MAX_ORDER",
    "MAX_CELLS",
    "SymKernel",
    "KernelSum",
    "conditioned_sums",
    "sym_tensor_product",
    "disjoint_tensor_product",
    "contract",
    "project",
    "restrict_below_count",
    "reverse_kernel",
    "remove_cell",
    "add_cell",
    "move_cell",
    "region_kernels",
    "ValueTable",
    "value_table",
    "tensor_power",
    "from_step",
    "constant_kernel",
]

MAX_ORDER = 5
MAX_CELLS = 64
_DENSE_LIMIT = 2_000_000

_FACTORIALS = tuple(math.factorial(n) for n in range(MAX_ORDER + 1))


def _counts(mu: tuple[int, ...]) -> dict[int, int]:
    d: dict[int, int] = {}
    for c in mu:
        d[c] = d.get(c, 0) + 1
    return d


def orderings(mu: tuple[int, ...]) -> int:
    """Number of distinct orderings of the multiset: n! / prod m_j!."""
    total = _FACTORIALS[len(mu)]
    if len(set(mu)) < len(mu):
        for m in _counts(mu).values():
            total //= _FACTORIALS[m]
    return total


def _merge(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(a + b))


def _remove(mu: tuple[int, ...], sub: tuple[int, ...]) -> tuple[int, ...]:
    out = list(mu)
    for c in sub:
        out.remove(c)
    return tuple(out)


def _split_weight(rho: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Number of ways to pick positions realizing sub-multiset mu inside rho."""
    rc, mc = _counts(rho), _counts(mu)
    w = 1
    for c, m in mc.items():
        w *= math.comb(rc[c], m)
    return w


def _check_shape(grid: Grid, order: int) -> None:
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"kernel order {order} outside the supported range 1..{MAX_ORDER}")
    if grid.n_cells > MAX_CELLS:
        raise ValueError(f"kernels support at most {MAX_CELLS} cells, grid has {grid.n_cells}")


def _checked_entries(grid: Grid, order: int, values: Mapping[tuple[int, ...], float]) -> dict[tuple[int, ...], float]:
    """Entries given from outside, checked one by one; zero values are dropped."""
    data: dict[tuple[int, ...], float] = {}
    for tup, v in values.items():
        tup = tuple(tup)
        if len(tup) != order:
            raise ValueError(f"multiset {tup} does not have order {order}")
        if any(isinstance(c, bool) or not isinstance(c, Integral) for c in tup):
            raise ValueError(f"multiset {tup} has a cell that is not an integer")
        tup = tuple(int(c) for c in tup)
        if list(tup) != sorted(tup):
            raise ValueError(f"multiset {tup} is not sorted")
        if min(tup) < 1 or max(tup) > grid.n_cells:
            raise ValueError(f"multiset {tup} outside cells 1..{grid.n_cells}")
        v = float(v)
        if not math.isfinite(v):
            raise ValueError(f"multiset {tup} has the non-finite value {v!r}")
        if v != 0.0:
            data[tup] = v
    return data


class SymKernel:
    """Immutable sparse symmetric kernel of a fixed order on a grid."""

    __slots__ = ("grid", "order", "data")

    def __init__(self, grid: Grid, order: int, values: Mapping[tuple[int, ...], float]):
        _check_shape(grid, order)
        self.grid = grid
        self.order = order
        self.data = _checked_entries(grid, order, values)

    @classmethod
    def _built(cls, grid: Grid, order: int, values: dict[tuple[int, ...], float]) -> "SymKernel":
        """A kernel on multisets this module built itself: zeros dropped, nothing checked.

        The kernel takes ``values`` over.  It must be a fresh dict of Python
        floats that no other kernel holds and that the caller never touches
        again.  Only when it holds a zero is a filtered copy stored instead.
        """
        if 0.0 in values.values():
            values = {mu: v for mu, v in values.items() if v != 0.0}
        f = object.__new__(cls)
        f.grid = grid
        f.order = order
        f.data = values
        return f

    @classmethod
    def zero(cls, grid: Grid, order: int) -> "SymKernel":
        _check_shape(grid, order)
        return cls._built(grid, order, {})

    def value(self, mu: Iterable[int]) -> float:
        return self.data.get(tuple(sorted(mu)), 0.0)

    def items(self) -> Iterator[tuple[tuple[int, ...], float]]:
        return iter(self.data.items())

    def __len__(self) -> int:
        """Number of stored (nonzero) multisets."""
        return len(self.data)

    def cells(self) -> set[int]:
        """The cells that some stored multiset touches."""
        return {c for mu in self.data for c in mu}

    def norm_sq(self) -> float:
        """sum_mu f(mu)^2 * orderings(mu) * delta^n, summed in key order one term after another."""
        d = self.grid.delta**self.order
        if not self.data:
            return 0.0
        v = np.fromiter(self.data.values(), dtype=np.float64, count=len(self.data))
        w = _weights(np.array(list(self.data), dtype=np.intp))
        return float(np.cumsum(v * v * w)[-1]) * d

    def inner(self, other: "SymKernel") -> float:
        self._check(other)
        small, big = (self.data, other.data) if len(self.data) <= len(other.data) else (other.data, self.data)
        d = self.grid.delta**self.order
        return sum(v * big.get(mu, 0.0) * orderings(mu) for mu, v in small.items()) * d

    def scaled(self, c: float) -> "SymKernel":
        c = float(c)
        return SymKernel._built(self.grid, self.order, {mu: v * c for mu, v in self.data.items()})

    def add(self, other: "SymKernel") -> "SymKernel":
        self._check(other)
        out = dict(self.data)
        for mu, v in other.data.items():
            out[mu] = out.get(mu, 0.0) + v
        return SymKernel._built(self.grid, self.order, out)

    def sub(self, other: "SymKernel") -> "SymKernel":
        """``add(other.scaled(-1.0))`` bit for bit: fl(a + (-b)) = fl(a - b)."""
        self._check(other)
        out = dict(self.data)
        for mu, v in other.data.items():
            out[mu] = out.get(mu, 0.0) - v
        return SymKernel._built(self.grid, self.order, out)

    def same_terms(self, other: "SymKernel") -> bool:
        """Whether both store the same values under the same multisets, in the same key order.

        A stored value is never zero, so equal values have equal bits.
        """
        if self is other:
            return True
        return (
            self.grid == other.grid
            and self.order == other.order
            and len(self.data) == len(other.data)
            and self.data == other.data
            and list(self.data) == list(other.data)
        )

    def max_abs(self) -> float:
        """The largest |value| stored, 0.0 when none is."""
        return max(map(abs, self.data.values()), default=0.0)

    def _check(self, other: "SymKernel") -> None:
        if other.grid != self.grid or other.order != self.order:
            raise ValueError("kernels differ in grid or order")

    def __repr__(self) -> str:
        return f"SymKernel(order={self.order}, cells={self.grid.n_cells}, nnz={len(self.data)})"


class KernelSum:
    """A running sum of kernel stacks {order: kernel}, one dict per order.

    ``kernels()`` is bit for bit the left fold that starts from no orders
    and, for each stack ``add`` was given, replaces each order's running
    kernel by ``running.add(kernel)`` (the stack's kernel itself for a new
    order), then drops the orders left empty, as ``ChaosFunctional.add``
    does: the same values, the same key order in each kernel and the same
    order of the orders.  Each sum is formed in place instead of on a copy
    of the running dict.  A multiset whose sum reaches 0.0 leaves its dict
    at once, where ``SymKernel._built`` would drop it after that ``add``, so
    it re-enters at the end; an order whose dict empties leaves and
    re-enters at the end the same way.
    """

    __slots__ = ("grid", "_sums")

    def __init__(self, grid: Grid):
        self.grid = grid
        self._sums: dict[int, dict[tuple[int, ...], float]] = {}

    def add(self, kernels: Mapping[int, SymKernel]) -> None:
        for n, f in kernels.items():
            if f.grid != self.grid or f.order != n:
                raise ValueError("kernel differs from the sum in grid or order")
            self._add_entries(n, f.data)

    def _add_entries(self, n: int, entries: Mapping[tuple[int, ...], float]) -> None:
        """Add one order's nonzero values, multiset by multiset in the mapping's order."""
        acc = self._sums.get(n)
        if acc is None:
            if entries:
                self._sums[n] = dict(entries)
        elif acc.keys().isdisjoint(entries):
            # each multiset enters at the end with 0.0 + v, which is v
            acc.update(entries)
        else:
            for mu, v in entries.items():
                s = acc.get(mu, 0.0) + v
                if s == 0.0:
                    del acc[mu]
                else:
                    acc[mu] = s
            if not acc:
                del self._sums[n]

    def kernels(self) -> dict[int, SymKernel]:
        """The sum so far, by order; the sum starts again from no orders."""
        sums, self._sums = self._sums, {}
        return {n: SymKernel._built(self.grid, n, d) for n, d in sums.items()}


def conditioned_sums(
    grid: Grid, pieces: Sequence[tuple[int, int, Mapping[int, SymKernel]]]
) -> list[dict[int, SymKernel]]:
    """At each boundary b = 0..n_cells, the sum of the pieces with lo < b, each conditioned at b.

    A piece (lo, hi, kernels) is the kernel stack of a product whose every
    multiset has exactly one cell c in (lo, hi]; one that has none or two
    raises ``ValueError``.  At b it is conditioned on the increments
    outside (min(b, hi), max(b, hi)], which keeps a multiset when it has no
    cell in (b, hi] (for b < hi) and none in (hi, b] (for b > hi), that is
    when c <= b < e, e its first cell after hi (n_cells + 1 for none).
    So (c, e) is read once per multiset, and at each b the multisets so
    kept are added into a ``KernelSum``, piece by piece, each piece's
    orders in their stored order and each order's multisets in key order.
    The result is bit for bit the left fold of ``SymKernel.add`` over the
    conditioned pieces, a conditioned piece keeping its orders' order and
    dropping the orders it empties: a sum that reaches 0.0 leaves and
    re-enters at the end, and so does an order that empties.
    """
    n_cells = grid.n_cells
    live = []  # (lo, [(order, [(c, e, multiset, value), ...]), ...]) per piece
    for lo, hi, kernels in pieces:
        grid.check_interval(lo, hi)
        orders = []
        for n, f in kernels.items():
            if f.grid != grid or f.order != n:
                raise ValueError("kernel differs from the sum in grid or order")
            entries = []
            for mu, v in f.data.items():
                i, j = bisect_right(mu, lo), bisect_right(mu, hi)
                if j - i != 1:
                    raise ValueError(f"multiset {mu} has {j - i} cells in the window ({lo}, {hi}], not one")
                entries.append((mu[i], mu[j] if j < n else n_cells + 1, mu, v))
            orders.append((n, entries))
        live.append((lo, orders))
    out: list[dict[int, SymKernel]] = [{}]
    for b in range(1, n_cells + 1):
        acc = KernelSum(grid)
        for lo, orders in live:
            if lo < b:
                for n, entries in orders:
                    acc._add_entries(n, {mu: v for c, e, mu, v in entries if c <= b < e})
        out.append(acc.kernels())
    return out


def sym_tensor_product(f: SymKernel, g: SymKernel) -> SymKernel:
    """Symmetrized tensor product of orders p and q: ``contract`` at depth 0.

    Value at a multiset rho:  C(p+q, p)^{-1} * sum over sub-multisets
    mu of rho of size p of [ways to place mu] * f(mu) * g(rho - mu).
    For disjoint supports this makes I(f) I(g) = I(f x g) exact.
    """
    return contract(f, g, 0)


def disjoint_tensor_product(f: SymKernel, g: SymKernel) -> SymKernel:
    """``sym_tensor_product`` of kernels that share no cell, to the bit.

    Each multiset rho = mu + nu then splits one way only, with weight 1, so
    its value is f(mu) * g(nu) * C(p+q, p)^{-1}, in the order of the nested
    loop over f and g.  The caller guarantees that the supports are disjoint.
    When one support lies wholly before the other, as the forward and
    backward factors of a two-sided summand do, rho is the concatenation.
    """
    if f.grid != g.grid:
        raise ValueError("kernels live on different grids")
    n = f.order + g.order
    if n > MAX_ORDER:
        raise ValueError(f"product order {n} exceeds the cap {MAX_ORDER}")
    scale = 1.0 / math.comb(n, f.order)
    fs, gs = f.data.items(), g.data.items()
    if not (fs and gs):
        return SymKernel._built(f.grid, n, {})
    # when one support lies wholly before the other, the sorted merge is a concatenation
    if max(mu[-1] for mu in f.data) <= min(nu[0] for nu in g.data):
        out = {mu + nu: a * b * scale for mu, a in fs for nu, b in gs}
    elif max(nu[-1] for nu in g.data) <= min(mu[0] for mu in f.data):
        out = {nu + mu: a * b * scale for mu, a in fs for nu, b in gs}
    else:
        out = {_merge(mu, nu): a * b * scale for mu, a in fs for nu, b in gs}
    return SymKernel._built(f.grid, n, out)


def _sub_multisets(counts: dict[int, int], size: int) -> Iterator[tuple[int, ...]]:
    cells = sorted(counts)
    def rec(i: int, remaining: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(acc)
            return
        if i == len(cells):
            return
        c = cells[i]
        for take in range(min(counts[c], remaining), -1, -1):
            yield from rec(i + 1, remaining - take, acc + [c] * take)
    return rec(0, size, [])


def contract(f: SymKernel, g: SymKernel, r: int) -> SymKernel:
    """Symmetrized r-fold contraction: integrate out r shared variables.

    Appears in the product formula for multiple integrals,
    I_p(f) I_q(g) = sum_r r! C(p,r) C(q,r) I_{p+q-2r}(sym(f (x)_r g)).
    At r = 0 the one shared sub-multiset is the empty one, of weight 1,
    and this is the symmetrized tensor product.
    """
    if f.grid != g.grid:
        raise ValueError("kernels live on different grids")
    if not 0 <= r <= min(f.order, g.order):
        raise ValueError(f"contraction depth {r} out of range")
    n = f.order + g.order - 2 * r
    if n == 0:
        raise ValueError("full contraction is a scalar; use kernel.inner")
    if n > MAX_ORDER:
        raise ValueError(f"product order {n} exceeds the cap {MAX_ORDER}")
    dr = f.grid.delta**r
    gs = [(nug, b, _counts(nug)) for nug, b in g.data.items()]
    acc: dict[tuple[int, ...], float] = {}
    for muf, a in f.data.items():
        cf = _counts(muf)
        for nug, b, cg in gs:
            common = {c: min(m, cg.get(c, 0)) for c, m in cf.items() if cg.get(c, 0)}
            if sum(common.values()) < r:
                continue
            for sigma in _sub_multisets(common, r):
                mu = _remove(muf, sigma)
                nu = _remove(nug, sigma)
                rho = _merge(mu, nu)
                w = orderings(sigma) * dr * _split_weight(rho, mu)
                acc[rho] = acc.get(rho, 0.0) + a * b * w
    scale = 1.0 / math.comb(n, f.order - r)
    return SymKernel._built(f.grid, n, {rho: v * scale for rho, v in acc.items()})


def project(f: SymKernel, a: int, b: int) -> SymKernel:
    """Drop multisets with a cell in (a, b]: the kernel of E[. | increments outside (a, b]].

    a and b are boundary indices, 0 <= a <= b <= n_cells.
    """
    f.grid.check_interval(a, b)
    # equal counts at or before a and at or before b: no cell in (a, b]
    return SymKernel._built(
        f.grid, f.order, {mu: v for mu, v in f.data.items() if bisect_right(mu, a) == bisect_right(mu, b)}
    )


def restrict_below_count(f: SymKernel, q: int, b: int) -> SymKernel:
    """Keep multisets with exactly q cells at or before the boundary index b.

    This realizes multiplication by the indicator of the region where
    exactly q coordinates sit below boundary b; cells are never split, so
    multisets with a repeated cell can only contribute when the whole
    repetition falls on one side.
    """
    if not 0 <= q <= f.order:
        raise ValueError(f"count {q} out of range 0..{f.order}")
    f.grid.check_interval(0, b)
    return SymKernel._built(f.grid, f.order, {mu: v for mu, v in f.data.items() if bisect_right(mu, b) == q})


def reverse_kernel(f: SymKernel) -> SymKernel:
    """Kernel of the time-reversed functional: cell k maps to n + 1 - k."""
    n = f.grid.n_cells
    return SymKernel._built(f.grid, f.order, {tuple(n + 1 - c for c in reversed(mu)): v for mu, v in f.data.items()})


def remove_cell(f: SymKernel, c: int) -> SymKernel:
    """nu -> n * f(nu + c), of order n - 1: the kernel of D_c I_n(f)."""
    if f.order == 1:
        raise ValueError("removing a cell from an order-1 kernel leaves a constant; read value((c,))")
    c = f.grid.check_cell(c)
    return SymKernel._built(f.grid, f.order - 1, {_remove(mu, (c,)): f.order * v for mu, v in f.data.items() if c in mu})


def add_cell(f: SymKernel, c: int) -> SymKernel:
    """rho -> f(rho - c) * m_c(rho) / (n + 1), of order n + 1, m_c the multiplicity of c.

    This is the kernel of the Skorohod integral of I_n(f) over cell c.
    """
    if f.order == MAX_ORDER:
        raise ValueError(f"kernel order {f.order + 1} outside the supported range 1..{MAX_ORDER}")
    c = f.grid.check_cell(c)
    out: dict[tuple[int, ...], float] = {}
    for nu, v in f.data.items():
        rho = _merge(nu, (c,))
        out[rho] = v * rho.count(c) / (f.order + 1)
    return SymKernel._built(f.grid, f.order + 1, out)


def move_cell(f: SymKernel, a: int, c: int, weight: float) -> SymKernel:
    """rho -> f(rho - c + a) * weight * m_c(rho): one copy of cell a moves to cell c."""
    a = f.grid.check_cell(a)
    c = f.grid.check_cell(c)
    weight = float(weight)
    out: dict[tuple[int, ...], float] = {}
    for mu, v in f.data.items():
        if a in mu:
            rho = _merge(_remove(mu, (a,)), (c,))
            out[rho] = v * weight * rho.count(c)
    return SymKernel._built(f.grid, f.order, out)


def region_kernels(
    grid: Grid, l: int, snapshots: Iterable[SymKernel], parts: Sequence[SymKernel | float | None]
) -> list[SymKernel]:
    """The region kernels f_{l,0..l} of an integral process, listed by q.

    f_{l,q}(mu) = (1/l) * sum over the q smallest positions i of
    parts[mu_i - 1](mu without mu_i): the integrand's order-(l - 1) kernel
    at that cell (None for none), or its mean when l = 1.  One running sum
    per multiset gives every q.  The multisets are those the snapshots
    store, in the order of a set filled by ``set.update`` on each
    snapshot's dict in turn; CPython sizes a set filled item by item
    differently, which would reorder every ``norm_sq`` sum over the output.
    """
    _check_shape(grid, l)
    if len(parts) != grid.n_cells:
        raise ValueError(f"need one integrand part per cell, got {len(parts)}")
    support: set[tuple[int, ...]] = set()
    for f in snapshots:
        if f.grid != grid or f.order != l:
            raise ValueError("snapshot differs from the map in grid or order")
        support.update(f.data)
    out: list[dict[tuple[int, ...], float]] = [{} for _ in range(l + 1)]
    for mu in support:
        s = 0.0
        for i, c in enumerate(mu):
            part = parts[c - 1]
            if l == 1:
                s += part
            elif part is not None:
                s += part.data.get(mu[:i] + mu[i + 1 :], 0.0)
            v = s / l
            if v != 0.0:
                out[i + 1][mu] = v
    return [SymKernel._built(grid, l, d) for d in out]


@dataclass(frozen=True, eq=False)
class ValueTable:
    """Order-``order`` kernels read into arrays, one row per kernel.

    ``multisets`` lists every multiset a row stores, in first-seen order,
    and fixes the columns.  ``values`` is float64 (rows, M), 0.0 where a
    row lacks the multiset; a stored value is never zero, so 0.0 means
    absent.  ``key_order[r]`` holds the columns of row r's multisets in
    that kernel's dict order.  ``weights`` is ``orderings(mu)`` as float64
    and ``cells`` the sorted cells, intp (M, order).
    """

    grid: Grid
    order: int
    multisets: tuple[tuple[int, ...], ...]
    values: np.ndarray
    key_order: tuple[np.ndarray, ...]
    weights: np.ndarray
    cells: np.ndarray

    def max_gap_spread(self) -> float:
        """Largest fl(max - min) of a column over one gap of its cells.

        The rows are the boundaries 0..n_cells.  The gaps of mu = (c_1 <=
        ... <= c_l) are the runs of boundaries with the same count of cells
        at or before them: 0..c_1 - 1, c_1..c_2 - 1, ..., c_l..n_cells.  A
        running max and min per column restart where a gap starts; the
        spread of a partial gap is at most that of its gap, since rounding
        is monotone, and equals it at the gap's last boundary.  So the
        largest spread seen over the rows is the largest over the gaps,
        and the result is at least +0.0.
        """
        rows, m = self.values.shape
        if not m:
            return 0.0
        starts = np.zeros((rows, m), dtype=bool)
        starts[self.cells, np.arange(m)[:, None]] = True
        hi, lo = self.values[0].copy(), self.values[0].copy()
        worst = 0.0
        for row, start in zip(self.values[1:], starts[1:]):
            np.maximum(hi, row, out=hi)
            np.minimum(lo, row, out=lo)
            hi[start] = row[start]
            lo[start] = row[start]
            spread = float((hi - lo).max())
            if spread > worst:
                worst = spread
        return worst

    def increment_norm_sq(self, lo: int, hi: int) -> float:
        """||f_hi - f_lo||^2 of rows lo and hi, as ``f_hi.sub(f_lo).norm_sq()`` gives it, bit for bit.

        ``sub`` stores each multiset of row hi in its key order, then row
        lo's others, and each d = hi - lo is the value ``add`` forms;
        ``norm_sq`` sums d * d * orderings in that order, one after another
        as ``sum`` does, so a sequential ``np.cumsum`` gives its bits.  The
        difference drops a d of 0.0 and the table keeps it, but adding +0.0
        to a sum of squares changes nothing.  The rows' union stores at
        least one multiset.
        """
        lo_keys = self.key_order[lo]
        keys = np.concatenate((self.key_order[hi], lo_keys[self.values[hi, lo_keys] == 0.0]))
        d = self.values[hi, keys] - self.values[lo, keys]
        return float(np.cumsum(d * d * self.weights[keys])[-1]) * self.grid.delta**self.order

    def max_region_gap(self, regions: Mapping[int, SymKernel]) -> float:
        """Largest |row b - f_{l,q(mu,b)}(mu)| over the rows b and multisets mu; 0.0 if none is stored.

        The rows are the boundaries 0..n_cells, l is the table's order and
        ``regions`` maps q = 0..l to the region kernel f_{l,q}, an absent q
        reading 0.0.  q(mu, b) is the count of mu's cells at or before b.
        The region kernels are read into rows q = 0..l over the table's
        columns, then the multisets only they store, which the table
        reads as 0.0.
        """
        l = self.order
        for q in regions:
            if not (is_index(q) and 0 <= q <= l):
                raise ValueError(f"region ({l}, {q!r}) outside q = 0..{l}")
        by_q = _read_rows(self.grid, l, [regions.get(q) for q in range(l + 1)], self)
        m = by_q.values.shape[1]
        if not m:
            return 0.0
        values = self.values
        if values.shape[1] < m:
            values = np.pad(values, ((0, 0), (0, m - values.shape[1])))
        # the count of cells at or before b grows by the cells equal to b
        cols = np.arange(m)
        steps = np.zeros((self.grid.n_cells + 1, m), dtype=np.int8)
        np.add.at(steps, (by_q.cells, cols[:, None]), 1)
        count = np.zeros(m, dtype=np.int8)
        worst = 0.0
        for row, step in zip(values, steps):
            count += step
            worst = max(worst, float(np.abs(row - by_q.values[count, cols]).max()))
        return worst


def _weights(cells: np.ndarray) -> np.ndarray:
    """orderings(mu) of each sorted row: l! over the product of the multiplicities' factorials."""
    m, l = cells.shape
    run = np.ones(m, dtype=np.int64)
    denom = np.ones(m, dtype=np.int64)
    for i in range(1, l):
        run = np.where(cells[:, i] == cells[:, i - 1], run + 1, 1)
        denom *= run
    return (_FACTORIALS[l] // denom).astype(np.float64)


def _read_rows(grid: Grid, order: int, rows: Sequence[SymKernel | None], base: ValueTable | None) -> ValueTable:
    """The rows' values over base's columns, then over the multisets only they store.

    A kernel that an integral process grows by ``add`` starts with the
    previous snapshot's keys, the same tuples in the same order, so a row
    whose keys extend the previous row's looks up only its new ones.
    """
    pos: dict[tuple[int, ...], int] = {} if base is None else dict(zip(base.multisets, range(len(base.multisets))))
    known = len(pos)
    idxs = []
    prev: list[tuple[int, ...]] = []
    for f in rows:
        if f is not None and (f.grid != grid or f.order != order):
            raise ValueError("kernel differs from the table in grid or order")
        keys = [] if f is None else list(f.data)
        start = len(prev) if keys[: len(prev)] == prev else 0
        tail = keys[start:]
        for mu in itertools.filterfalse(pos.__contains__, tail):
            pos[mu] = len(pos)
        head = idxs[-1][:start] if start else np.empty(0, dtype=np.intp)
        idxs.append(np.concatenate((head, np.fromiter(map(pos.__getitem__, tail), dtype=np.intp, count=len(tail)))))
        prev = keys
    multisets = tuple(pos)
    values = np.zeros((len(rows), len(multisets)))
    for row, f, idx in zip(values, rows, idxs):
        if f is not None:
            row[idx] = np.fromiter(f.data.values(), dtype=np.float64, count=len(idx))
    extra = np.array(multisets[known:], dtype=np.intp).reshape(-1, order)
    if base is None:
        cells, weights = extra, _weights(extra)
    else:
        cells = np.concatenate((base.cells, extra))
        weights = np.concatenate((base.weights, _weights(extra)))
    return ValueTable(grid, order, multisets, values, tuple(idxs), weights, cells)


def value_table(grid: Grid, order: int, snapshots: Sequence[SymKernel | None]) -> ValueTable:
    """One order of an integral process, read in one pass: row b is boundary b.

    snapshots holds one order-``order`` kernel per boundary 0..n_cells,
    None where the order is absent.
    """
    _check_shape(grid, order)
    n = grid.n_cells
    if len(snapshots) != n + 1:
        raise ValueError(f"need one snapshot per boundary 0..{n}, got {len(snapshots)}")
    return _read_rows(grid, order, snapshots, None)


def _dense_guard(grid: Grid, order: int) -> None:
    count = math.comb(grid.n_cells + order - 1, order)
    if count > _DENSE_LIMIT:
        raise ValueError(
            f"dense kernel with {count} multisets exceeds the desk-scale limit {_DENSE_LIMIT}"
        )


def tensor_power(h: StepFunction, order: int) -> SymKernel:
    """h^{(x) order}: value at a multiset is the product of cell values."""
    _check_shape(h.grid, order)
    _dense_guard(h.grid, order)
    values = h.values.tolist()
    support = [k for k in h.grid.cells() if values[k - 1] != 0.0]
    out: dict[tuple[int, ...], float] = {}
    for mu in itertools.combinations_with_replacement(support, order):
        v = 1.0
        for c in mu:
            v *= values[c - 1]
        out[mu] = v
    return SymKernel._built(h.grid, order, out)


def from_step(h: StepFunction) -> SymKernel:
    _check_shape(h.grid, 1)
    return SymKernel._built(h.grid, 1, {(k,): v for k, v in enumerate(h.values.tolist(), 1)})


def constant_kernel(grid: Grid, order: int, value: float) -> SymKernel:
    _check_shape(grid, order)
    _dense_guard(grid, order)
    cells = list(grid.cells())
    value = float(value)
    return SymKernel._built(grid, order, {mu: value for mu in itertools.combinations_with_replacement(cells, order)})

