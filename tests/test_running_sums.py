"""Sums and differences of kernels against the slow paths they replace, bit for bit.

``sum_functionals`` (and the ``KernelSum`` under it) must equal the left
fold ``ChaosFunctional(grid, 0.0, {}).add(F1).add(F2)...``, ``sub`` must
equal ``add(other.scaled(-1.0))`` and ``norm_sq`` the generator ``sum()``
it replaced.  Values are compared with their sign, and kernels and their
entries in stored order, since key order fixes the order of every later
float sum.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skorochaos.chaos import ChaosFunctional, sum_functionals
from skorochaos.grid import Grid
from skorochaos.kernels import KernelSum, SymKernel, orderings

# few values, so sums often cancel to 0.0 and keys and orders leave and come back
FEW = st.sampled_from([1.0, -1.0, 0.5, -0.5, 2.0, 1e-300, -1e-300])
WIDE = st.floats(min_value=-1e6, max_value=1e6).filter(lambda v: v != 0.0) | FEW
MEANS = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(min_value=-3, max_value=3)


def exact(F):
    """Mean with its sign, kernel orders in stored order, and every kernel's entries in order."""
    return (
        F.mean,
        math.copysign(1.0, F.mean),
        list(F.kernels),
        [[(mu, v, math.copysign(1.0, v)) for mu, v in f.items()] for f in F.kernels.values()],
    )


def left_fold(grid, terms):
    total = ChaosFunctional(grid, 0.0, {})
    for F in terms:
        total = total.add(F)
    return total


def kernel(grid, order, values):
    return SymKernel(grid, order, dict(values))


@st.composite
def functionals(draw, grid, values=FEW):
    orders = draw(st.permutations([1, 2, 3]))[: draw(st.integers(0, 3))]
    kernels = {}
    for n in orders:
        multisets = st.lists(st.integers(1, grid.n_cells), min_size=n, max_size=n).map(lambda xs: tuple(sorted(xs)))
        kernels[n] = SymKernel(grid, n, draw(st.dictionaries(multisets, values, max_size=5)))
    return ChaosFunctional(grid, draw(MEANS), kernels)


@st.composite
def term_lists(draw):
    grid = Grid(draw(st.integers(1, 3)))
    return grid, draw(st.lists(functionals(grid), max_size=8))


@settings(max_examples=200, deadline=None)
@given(case=term_lists())
def test_sum_is_the_left_fold_of_add(case):
    grid, terms = case
    assert exact(sum_functionals(grid, iter(terms))) == exact(left_fold(grid, terms))


def test_a_cancelled_key_and_an_emptied_order_come_back_at_the_end():
    grid = Grid(3)
    terms = [
        ChaosFunctional(grid, 0.5, {2: kernel(grid, 2, [((1, 1), 1.0)]), 1: kernel(grid, 1, [((1,), 1.0), ((2,), 2.0)])}),
        ChaosFunctional(grid, -0.5, {1: kernel(grid, 1, [((1,), -1.0)]), 2: kernel(grid, 2, [((1, 1), -1.0)])}),
        ChaosFunctional(grid, -0.0, {2: kernel(grid, 2, [((2, 3), 3.0)]), 1: kernel(grid, 1, [((3,), 4.0), ((1,), 5.0)])}),
    ]
    got = sum_functionals(grid, terms)
    assert exact(got) == exact(left_fold(grid, terms))
    # order 2 emptied after the second term, so it now follows order 1; (1,) follows (2,) and (3,)
    assert list(got.kernels) == [1, 2]
    assert list(got.kernels[1].items()) == [((2,), 2.0), ((3,), 4.0), ((1,), 5.0)]
    assert got.mean == 0.0 and math.copysign(1.0, got.mean) == 1.0


def test_sum_of_nothing_and_of_other_grids():
    grid = Grid(3)
    assert exact(sum_functionals(grid, [])) == exact(ChaosFunctional(grid, 0.0, {}))
    with pytest.raises(ValueError, match="different grids"):
        sum_functionals(grid, [ChaosFunctional(Grid(4), 1.0, {})])
    acc = KernelSum(grid)
    with pytest.raises(ValueError, match="grid or order"):
        acc.add({1: kernel(Grid(4), 1, [((1,), 1.0)])})
    with pytest.raises(ValueError, match="grid or order"):
        acc.add({2: kernel(grid, 1, [((1,), 1.0)])})


def test_kernel_sum_hands_over_and_starts_again():
    grid = Grid(3)
    f = kernel(grid, 1, [((2,), 1.5)])
    acc = KernelSum(grid)
    acc.add({1: f})
    first = acc.kernels()
    assert list(first[1].items()) == [((2,), 1.5)]
    assert acc.kernels() == {}
    # the sum copies the kernel it starts from, so adding to it leaves f alone
    acc.add({1: f})
    acc.add({1: f})
    assert list(acc.kernels()[1].items()) == [((2,), 3.0)]
    assert list(f.items()) == [((2,), 1.5)]


@st.composite
def pairs(draw):
    grid = Grid(draw(st.integers(1, 3)))
    F = draw(functionals(grid, WIDE))
    G = F if draw(st.booleans()) else draw(functionals(grid, WIDE))
    return F, G


@settings(max_examples=150, deadline=None)
@given(pair=pairs())
def test_sub_is_add_of_the_negation(pair):
    F, G = pair
    assert exact(F.sub(G)) == exact(F.add(G.scaled(-1.0)))
    for n, f in F.kernels.items():
        g = G.kernels.get(n, SymKernel.zero(F.grid, n))
        assert exact(ChaosFunctional(F.grid, 0.0, {n: f.sub(g)})) == exact(ChaosFunctional(F.grid, 0.0, {n: f.add(g.scaled(-1.0))}))


def test_sub_refuses_another_grid_or_order():
    grid = Grid(3)
    f = kernel(grid, 1, [((1,), 1.0)])
    with pytest.raises(ValueError, match="grid or order"):
        f.sub(kernel(grid, 2, [((1, 2), 1.0)]))
    with pytest.raises(ValueError, match="different grids"):
        ChaosFunctional(grid, 0.0, {1: f}).sub(ChaosFunctional(Grid(4), 0.0, {}))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_norm_sq_is_the_generator_sum(data):
    grid = Grid(data.draw(st.integers(1, 6)))
    n = data.draw(st.integers(1, 4))
    multisets = st.lists(st.integers(1, grid.n_cells), min_size=n, max_size=n).map(lambda xs: tuple(sorted(xs)))
    f = SymKernel(grid, n, data.draw(st.dictionaries(multisets, WIDE, max_size=20)))
    d = grid.delta**n
    old = sum(v * v * orderings(mu) for mu, v in f.items()) * d
    got = f.norm_sq()
    assert type(got) is float
    assert got == old and math.copysign(1.0, got) == math.copysign(1.0, old)


def test_norm_sq_adds_in_key_order_one_term_after_another():
    # 1e16 + 1 rounds back to 1e16, so a sum that pairs the ones up first gives another float
    grid = Grid(16)
    f = kernel(grid, 1, [((1,), 1e8), *(((c,), 1.0) for c in range(2, 17))])
    old = sum(v * v * orderings(mu) for mu, v in f.items()) * grid.delta
    assert f.norm_sq() == old
    assert old == 1e16 * grid.delta
