"""Symmetric kernel storage and algebra against brute-force enumeration.

The brute-force oracles expand kernels over ordered cell tuples, so they
are independent of the multiset bookkeeping used by the implementation.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skorochaos.chaos import ChaosFunctional, conditional_expectation
from skorochaos.grid import Grid
from skorochaos.kernels import (
    MAX_ORDER,
    SymKernel,
    constant_kernel,
    contract,
    from_step,
    orderings,
    project,
    region_kernels,
    restrict_below_count,
    reverse_kernel,
    sym_tensor_product,
    tensor_power,
)
from skorochaos.paths import StepFunction

GRID4 = Grid(4)


def brute_norm_sq(f):
    d = f.grid.delta**f.order
    total = 0.0
    for tup in itertools.product(f.grid.cells(), repeat=f.order):
        total += f.value(tup) ** 2 * d
    return total


def brute_inner(f, g):
    d = f.grid.delta**f.order
    total = 0.0
    for tup in itertools.product(f.grid.cells(), repeat=f.order):
        total += f.value(tup) * g.value(tup) * d
    return total


def brute_sym_product(f, g, rho):
    vals = []
    for perm in itertools.permutations(rho):
        vals.append(f.value(perm[: f.order]) * g.value(perm[f.order :]))
    return sum(vals) / len(vals)


def brute_contract(f, g, r, rho):
    grid = f.grid
    vals = []
    for perm in itertools.permutations(rho):
        left, right = perm[: f.order - r], perm[f.order - r :]
        s = 0.0
        for shared in itertools.product(grid.cells(), repeat=r):
            s += f.value(left + shared) * g.value(right + shared)
        vals.append(s * grid.delta**r)
    return sum(vals) / len(vals)


def kernel_a():
    return SymKernel(GRID4, 2, {(1, 1): 0.5, (1, 3): -1.25, (2, 4): 2.0, (4, 4): 0.75})


def kernel_b():
    return SymKernel(GRID4, 2, {(1, 2): 1.5, (2, 2): -0.5, (2, 4): 1.0})


def test_orderings_counts():
    assert orderings((1, 2, 3)) == 6
    assert orderings((1, 1, 3)) == 3
    assert orderings((2, 2, 2)) == 1
    assert orderings((1, 1, 2, 2)) == 6
    for n in range(1, MAX_ORDER + 1):
        for mu in itertools.combinations_with_replacement(range(1, 7), n):
            want = math.factorial(n)
            for c in set(mu):
                want //= math.factorial(mu.count(c))
            assert orderings(mu) == want, mu


def test_norm_against_enumeration():
    for f in (kernel_a(), kernel_b(), tensor_power(StepFunction.indicator(GRID4, 0, 2), 3)):
        assert f.norm_sq() == pytest.approx(brute_norm_sq(f), rel=1e-13)


def test_inner_against_enumeration():
    f, g = kernel_a(), kernel_b()
    assert f.inner(g) == pytest.approx(brute_inner(f, g), rel=1e-13)
    assert f.inner(g) == pytest.approx(g.inner(f), rel=1e-13)


def test_sym_tensor_product_against_enumeration():
    f = from_step(StepFunction(GRID4, np.array([1.0, -2.0, 0.5, 3.0])))
    g = kernel_a()
    h = sym_tensor_product(f, g)
    assert h.order == 3
    for rho in [(1, 1, 3), (1, 2, 4), (2, 4, 4), (1, 1, 1), (3, 3, 4)]:
        assert h.value(rho) == pytest.approx(brute_sym_product(f, g, rho), abs=1e-13)


def test_sym_tensor_product_commutes():
    f, g = kernel_a(), from_step(StepFunction.constant(GRID4, 1.0))
    left = sym_tensor_product(f, g)
    right = sym_tensor_product(g, f)
    assert left.sub(right).max_abs() < 1e-14


def oracle_sym_tensor_product(f, g):
    """The stored (multiset, value) pairs of the product's own loop, before it became ``contract`` at r = 0."""
    acc = {}
    for mu, a in f.items():
        for nu, b in g.items():
            rho = tuple(sorted(mu + nu))
            rc, mc = Counter(rho), Counter(mu)
            w = math.prod(math.comb(rc[c], m) for c, m in mc.items())
            acc[rho] = acc.get(rho, 0.0) + a * b * w
    scale = 1.0 / math.comb(f.order + g.order, f.order)
    return [(rho, v * scale) for rho, v in acc.items() if v * scale != 0.0]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_sym_tensor_product_is_the_old_loop_bit_for_bit(data):
    grid = Grid(data.draw(st.integers(1, 8)))
    p = data.draw(st.integers(1, 4))
    q = data.draw(st.integers(1, 5 - p))
    # few cells and repeated ones, so products share cells and rho has multiplicities
    cells = st.integers(1, min(grid.n_cells, data.draw(st.integers(1, 4))))
    values = st.one_of(st.sampled_from([1.0, -1.0, 0.5, -0.5]), st.floats(min_value=-1e3, max_value=1e3))

    def kernel(n):
        multisets = st.lists(cells, min_size=n, max_size=n).map(lambda xs: tuple(sorted(xs)))
        return SymKernel(grid, n, data.draw(st.dictionaries(multisets, values, max_size=6)))

    f, g = kernel(p), kernel(q)
    got = [(rho, v.hex()) for rho, v in sym_tensor_product(f, g).items()]
    assert got == [(rho, v.hex()) for rho, v in oracle_sym_tensor_product(f, g)]


def test_contract_against_enumeration():
    f, g = kernel_a(), kernel_b()
    h = contract(f, g, 1)
    assert h.order == 2
    for rho in [(1, 2), (1, 1), (2, 4), (3, 4), (4, 4)]:
        assert h.value(rho) == pytest.approx(brute_contract(f, g, 1, rho), abs=1e-13)


def test_full_contraction_refused():
    with pytest.raises(ValueError):
        contract(kernel_a(), kernel_b(), 2)


def test_project_keeps_inside_multisets():
    p = project(kernel_a(), 2, 4)   # drops multisets with a cell in (2, 4]
    assert set(p.data) == {(1, 1)}
    assert p.value((1, 1)) == 0.5


def test_restrict_below_count():
    f = constant_kernel(GRID4, 2, 1.0)
    r = restrict_below_count(f, 1, 2)   # exactly one cell at or before cell 2
    assert all(sum(1 for c in mu if c <= 2) == 1 for mu in r.data)
    assert (1, 3) in r.data and (1, 2) not in r.data


def test_reverse_kernel_involution():
    f = kernel_a()
    assert reverse_kernel(reverse_kernel(f)).sub(f).max_abs() == 0.0
    assert reverse_kernel(f).norm_sq() == pytest.approx(f.norm_sq())
    assert reverse_kernel(f).value((1, 3)) == f.value((2, 4))


def test_tensor_power_norm_identity():
    h = StepFunction(GRID4, np.array([0.5, 1.0, -1.5, 2.0]))
    for n in (1, 2, 3):
        assert tensor_power(h, n).norm_sq() == pytest.approx(h.norm_sq() ** n, rel=1e-13)


def test_validation_errors():
    with pytest.raises(ValueError):
        SymKernel(GRID4, 2, {(2, 1): 1.0})          # unsorted
    with pytest.raises(ValueError):
        SymKernel(GRID4, 2, {(1, 2, 3): 1.0})       # wrong order
    with pytest.raises(ValueError):
        SymKernel(GRID4, MAX_ORDER + 1, {})          # order cap
    with pytest.raises(ValueError):
        SymKernel(Grid(128), 1, {})                  # cell cap
    with pytest.raises(ValueError):
        SymKernel(GRID4, 1, {(5,): 1.0})             # out of range
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            SymKernel(GRID4, 1, {(1,): bad})         # non-finite value
    for cells in ((1.5,), (True, 2), (1, 2.0), (np.bool_(True), 2)):
        with pytest.raises(ValueError, match="not an integer"):
            SymKernel(GRID4, len(cells), {cells: 2.0})
    f = SymKernel(GRID4, 2, {(np.int64(1), np.int32(3)): 2.0})   # numpy integers are cells
    assert f.value((1, 3)) == 2.0
    with pytest.raises(ValueError, match="one integrand part per cell"):
        region_kernels(GRID4, 1, [], [1.0] * 3)
    with pytest.raises(ValueError):
        region_kernels(GRID4, 0, [], [1.0] * 4)      # order range
    for snapshot in (SymKernel(Grid(8), 1, {(8,): 1.0}), kernel_a()):   # other grid, other order
        with pytest.raises(ValueError, match="grid or order"):
            region_kernels(GRID4, 1, [snapshot], [1.0] * 4)
    empty = ChaosFunctional(GRID4)                    # no kernels to reach project
    for a, b in ((3, 2), (0, 5), (-1, 2)):           # a > b, b > N, a < 0
        with pytest.raises(ValueError, match="interval"):
            project(kernel_a(), a, b)
        with pytest.raises(ValueError, match="interval"):
            conditional_expectation(empty, a, b)
    F = ChaosFunctional(GRID4, 0.0, {2: kernel_a()})
    for a, b in ((0, 0.5), (0.0, 2), (1, 2.0), (False, 2), (0, True)):   # floats and bools
        with pytest.raises(ValueError, match="integer boundary indices"):
            project(kernel_a(), a, b)
        with pytest.raises(ValueError, match="integer boundary indices"):
            conditional_expectation(F, a, b)
        with pytest.raises(ValueError, match="integer boundary indices"):
            StepFunction.indicator(GRID4, a, b)
    with pytest.raises(ValueError, match="integer boundary indices"):
        restrict_below_count(kernel_a(), 1, 2.0)
    assert list(project(kernel_a(), np.int64(0), np.int32(2)).items()) == list(project(kernel_a(), 0, 2).items())


def sorted_multiset(order):
    return st.lists(
        st.integers(min_value=1, max_value=4), min_size=order, max_size=order
    ).map(lambda xs: tuple(sorted(xs)))


def small_kernel(order):
    return st.dictionaries(
        sorted_multiset(order),
        st.floats(min_value=-4, max_value=4, allow_nan=False),
        max_size=6,
    ).map(lambda d: SymKernel(GRID4, order, d))


@settings(max_examples=60, deadline=None)
@given(f=small_kernel(2), g=small_kernel(2), a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_inner_is_bilinear(f, g, a, b):
    h = f.scaled(a).add(g.scaled(b))
    lhs = h.inner(h)
    rhs = a * a * f.inner(f) + 2 * a * b * f.inner(g) + b * b * g.inner(g)
    assert lhs == pytest.approx(rhs, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(f=small_kernel(2), g=small_kernel(2))
def test_cauchy_schwarz(f, g):
    assert f.inner(g) ** 2 <= f.norm_sq() * g.norm_sq() + 1e-12


@settings(max_examples=40, deadline=None)
@given(f=small_kernel(1), g=small_kernel(2))
def test_product_norm_via_enumeration(f, g):
    h = sym_tensor_product(f, g)
    assert h.norm_sq() == pytest.approx(brute_norm_sq(h), abs=1e-10)
