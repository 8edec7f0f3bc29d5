"""Chaos functionals: evaluation, moments, product, derivative, projection.

Independent oracles: Hermite closed forms for single-kernel integrals,
pathwise multiplication for the product formula, directional derivatives
in a single increment for the Malliavin operator, and Monte Carlo for
the isometry.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import product_expectation
from skorochaos.chaos import (
    ChaosFunctional,
    conditional_expectation,
    constant_functional,
    eval_many,
    first_order,
    hermite_functional,
    hermite_values,
    malliavin_derivative,
    multiply,
)
from skorochaos.grid import Grid
from skorochaos.kernels import SymKernel, from_step, tensor_power
from skorochaos.paths import PathBatch, StepFunction, isonormal_eval, sample_paths

GRID = Grid(4)


def test_hermite_recurrence_values():
    x = np.array([0.0, 1.0, -2.0, 0.5])
    h = hermite_values(3, x)
    np.testing.assert_allclose(h[0], 1.0)
    np.testing.assert_allclose(h[1], x)
    np.testing.assert_allclose(h[2], (x**2 - 1) / 2)
    np.testing.assert_allclose(h[3], (x**3 - 3 * x) / 6)
    assert hermite_values(0, x).shape == (1, 4)
    for bad in (-1, 1.0, True):
        with pytest.raises(ValueError, match="Hermite order"):
            hermite_values(bad, x)


def test_single_kernel_matches_hermite_closed_form(grid8, batch8):
    h = StepFunction.indicator(grid8, 0, 4).scaled(2.0)
    norm = h.norm()
    xs = isonormal_eval(batch8, h) / norm
    for n in (1, 2, 3):
        F = ChaosFunctional(grid8, 0.0, {n: tensor_power(h, n)})
        got = eval_many([F], batch8)[0]
        want = math.factorial(n) * norm**n * hermite_values(n, xs)[n]
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_hermite_functional_unit_norm(grid8, batch8):
    h = StepFunction.constant(grid8, 1.0)
    F = hermite_functional(h, 2)
    got = eval_many([F], batch8)[0]
    x = isonormal_eval(batch8, h)
    np.testing.assert_allclose(got, x**2 - 1.0, atol=1e-12)
    assert F.variance() == pytest.approx(2.0)


def test_isometry_monte_carlo(grid8):
    batch = sample_paths(grid8, 60000, seed=42)
    h = StepFunction.indicator(grid8, 0, 4)
    g = StepFunction.constant(grid8, 1.0)
    F = ChaosFunctional(grid8, 0.0, {2: tensor_power(h, 2)})
    G = ChaosFunctional(grid8, 0.0, {2: tensor_power(g, 2)})
    prod = eval_many([F], batch)[0] * eval_many([G], batch)[0]
    exact = F.covariance(G)
    assert exact == pytest.approx(2 * h.inner(g) ** 2, rel=1e-12)
    se = prod.std(ddof=1) / np.sqrt(batch.count)
    assert abs(prod.mean() - exact) < 3 * se


def test_orthogonality_across_orders_is_exact():
    f = first_order(StepFunction.constant(GRID, 1.0))
    g = ChaosFunctional(GRID, 0.0, {2: tensor_power(StepFunction.constant(GRID, 1.0), 2)})
    assert f.covariance(g) == 0.0
    assert product_expectation(f, g) == 0.0


def test_eval_many_matches_single(grid8, batch8):
    fs = [
        constant_functional(grid8, 2.5),
        first_order(StepFunction.indicator(grid8, 2, 8)),
        hermite_functional(StepFunction.constant(grid8, 1.0), 3),
    ]
    stacked = eval_many(fs, batch8)
    for i, F in enumerate(fs):
        np.testing.assert_array_equal(stacked[i], eval_many([F], batch8)[0])


def test_product_formula_matches_pathwise(grid8, batch8):
    h1 = StepFunction.indicator(grid8, 0, 4)
    h2 = StepFunction.constant(grid8, 1.0)
    F = ChaosFunctional(grid8, 0.5, {1: from_step(h1), 2: tensor_power(h2, 2)})
    G = ChaosFunctional(grid8, -1.0, {1: from_step(h2), 2: tensor_power(h1, 2)})
    got = eval_many([multiply(F, G)], batch8)[0]
    want = eval_many([F], batch8)[0] * eval_many([G], batch8)[0]
    np.testing.assert_allclose(got, want, atol=1e-11)


def test_product_expectation_consistency(grid8):
    h1 = StepFunction.indicator(grid8, 0, 4)
    h2 = StepFunction.constant(grid8, 1.0)
    F = ChaosFunctional(grid8, 0.5, {1: from_step(h1)})
    G = ChaosFunctional(grid8, -1.0, {2: tensor_power(h2, 2)})
    assert multiply(F, G).mean == pytest.approx(product_expectation(F, G), abs=1e-14)


def test_product_order_cap_enforced(grid8):
    F = ChaosFunctional(grid8, 0.0, {3: tensor_power(StepFunction.constant(grid8, 1.0), 3)})
    with pytest.raises(ValueError):
        multiply(F, F)


def test_derivative_is_increment_gradient(grid8, batch8):
    # the derivative at cell c is the exact partial in that increment:
    # evaluate on a batch with the increment shifted and difference out
    h = StepFunction.constant(grid8, 1.0)
    F = ChaosFunctional(
        grid8,
        0.3,
        {1: from_step(h), 2: tensor_power(h, 2), 3: tensor_power(h, 3)},
    )
    eps = 1e-6
    for cell in (1, 5, 8):
        D = malliavin_derivative(F, cell)
        got = eval_many([D], batch8)[0]
        up, down = batch8.increments.copy(), batch8.increments.copy()
        up[:, cell - 1] += eps
        down[:, cell - 1] -= eps
        fd = (
            eval_many([F], PathBatch(grid8, up))[0]
            - eval_many([F], PathBatch(grid8, down))[0]
        ) / (2 * eps)
        np.testing.assert_allclose(got, fd, atol=1e-7)


def test_derivative_drops_order(grid8):
    F = hermite_functional(StepFunction.constant(grid8, 1.0), 3)
    D = malliavin_derivative(F, 2)
    assert D.max_order == 2
    D0 = malliavin_derivative(constant_functional(grid8, 5.0), 1)
    assert D0.mean == 0.0 and D0.kernels == {}


def test_conditional_expectation_tower(grid8):
    h = StepFunction.constant(grid8, 1.0)
    F = ChaosFunctional(grid8, 1.5, {2: tensor_power(h, 2)})
    # knowing cells 1..2 is coarser than knowing cells 1..4
    a = conditional_expectation(conditional_expectation(F, 4, 8), 2, 8)
    b = conditional_expectation(F, 2, 8)
    assert a.sub(b).max_abs() == 0.0
    assert conditional_expectation(F, 0, 8).mean == F.mean


def test_conditional_expectation_is_projection(grid8, batch8):
    # E[F | A] times any A-measurable first-order G has the same mean as F G
    h = StepFunction.constant(grid8, 1.0)
    F = ChaosFunctional(grid8, 0.0, {2: tensor_power(h, 2)})
    G = first_order(StepFunction.indicator(grid8, 0, 4))
    proj = conditional_expectation(F, 4, 8)
    assert product_expectation(proj, G) == pytest.approx(product_expectation(F, G), abs=1e-14)


def test_duality_of_derivative_and_integral(grid8):
    # E[<DF, u>] = E[F delta(u)] checked exactly for u = X_1 on each cell
    from skorochaos.skorohod import brownian_terminal_process, skorohod_process

    h = StepFunction.constant(grid8, 1.0)
    F = ChaosFunctional(grid8, 0.0, {2: tensor_power(h, 2)})
    u = brownian_terminal_process(grid8)
    lhs = 0.0
    for cell in grid8.cells():
        lhs += product_expectation(malliavin_derivative(F, cell), u.at_cell(cell)) * grid8.delta
    rhs = product_expectation(F, skorohod_process(u).at_boundary(8))
    assert lhs == pytest.approx(rhs, abs=1e-14)


@pytest.mark.parametrize("mean", [math.nan, math.inf, -math.inf])
def test_functional_validation_errors(mean):
    with pytest.raises(ValueError, match="not finite"):
        ChaosFunctional(GRID, mean)


def small_functional():
    ms2 = st.lists(st.integers(1, 4), min_size=2, max_size=2).map(lambda x: tuple(sorted(x)))
    return st.builds(
        lambda m, d: ChaosFunctional(GRID, m, {2: SymKernel(GRID, 2, d)}),
        st.floats(-2, 2),
        st.dictionaries(ms2, st.floats(-3, 3), max_size=5),
    )


@settings(max_examples=50, deadline=None)
@given(F=small_functional(), G=small_functional())
def test_covariance_is_symmetric_bilinear(F, G):
    assert F.covariance(G) == pytest.approx(G.covariance(F), abs=1e-12)
    assert F.add(G).variance() == pytest.approx(
        F.variance() + 2 * F.covariance(G) + G.variance(), abs=1e-9
    )


@settings(max_examples=50, deadline=None)
@given(F=small_functional())
def test_projection_contracts_variance(F):
    proj = conditional_expectation(F, 2, 4)
    assert proj.variance() <= F.variance() + 1e-12
    assert proj.mean == pytest.approx(F.mean, abs=1e-12)


def oracle_kernel_max_abs_diff(f, g):
    """The binary comparison that ``f.sub(g).max_abs()`` replaced, kept as its oracle."""
    fd, gd = dict(f.items()), dict(g.items())
    keys = set(fd) | set(gd)
    return max((abs(fd.get(mu, 0.0) - gd.get(mu, 0.0)) for mu in keys), default=0.0)


def oracle_max_abs_diff(F, G):
    """The same for functionals: the mean, then every order either side stores."""
    worst = abs(F.mean - G.mean)
    for n in set(F.kernels) | set(G.kernels):
        zero = SymKernel.zero(F.grid, n)
        worst = max(worst, oracle_kernel_max_abs_diff(F.kernels.get(n, zero), G.kernels.get(n, zero)))
    return worst


_SIGNED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 3.0, -3.0])
_VALUES = st.one_of(_SIGNED, st.floats(-1e3, 1e3))


@st.composite
def kernel_pairs(draw, grid, n):
    """Two order-n kernels whose multisets overlap, cancel, differ or are disjoint."""
    cells = st.integers(1, grid.n_cells)
    multisets = st.lists(cells, min_size=n, max_size=n).map(lambda xs: tuple(sorted(xs)))
    left = draw(st.dictionaries(multisets, _VALUES, max_size=5))
    right = {}
    for mu, v in left.items():
        how = draw(st.sampled_from(["cancel", "other", "absent"]))
        if how != "absent":
            right[mu] = v if how == "cancel" else draw(_VALUES)
    if draw(st.booleans()):
        # multisets of the right side's own: with every left one absent, the key sets are disjoint
        right.update(draw(st.dictionaries(multisets, _VALUES, max_size=4)))
    return SymKernel(grid, n, left), SymKernel(grid, n, right)


@st.composite
def functional_pairs(draw):
    grid = Grid(draw(st.sampled_from([1, 2, 3, 4, 8])))
    ks = ({}, {})
    for n in range(1, 4):
        f, g = draw(kernel_pairs(grid, n))
        side = draw(st.sampled_from(["both", "left", "right", "neither"]))
        if side in ("both", "left"):
            ks[0][n] = f
        if side in ("both", "right"):
            ks[1][n] = g
    means = draw(st.tuples(_SIGNED, _SIGNED) | st.tuples(_VALUES, _VALUES))
    return tuple(ChaosFunctional(grid, m, k) for m, k in zip(means, ks))


@settings(max_examples=300, deadline=None)
@given(pair=functional_pairs(), data=st.data())
def test_max_abs_of_the_difference_is_the_old_binary_comparison(pair, data):
    F, G = pair
    assert F.sub(G).max_abs().hex() == oracle_max_abs_diff(F, G).hex()
    assert G.sub(F).max_abs().hex() == oracle_max_abs_diff(G, F).hex()
    n = data.draw(st.integers(1, 3))
    f, g = data.draw(kernel_pairs(F.grid, n))
    assert f.sub(g).max_abs().hex() == oracle_kernel_max_abs_diff(f, g).hex()
    assert ChaosFunctional(F.grid).max_abs().hex() == (0.0).hex()
