"""Backward representations on the reversed path, checked law by law."""

import numpy as np
import pytest

from skorochaos import (
    ChaosFunctional,
    ChaosProcess,
    StepFunction,
    backward_ito_eval,
    clark_ocone_integrand,
    conditional_expectation,
    eval_many,
    first_order,
    from_step,
    hermite_functional,
    hermite_projection,
    quadratic_covariation,
    reverse_batch,
    reverse_functional,
    sample_paths,
    semimartingale_decomposition_check,
    sym_tensor_product,
    tail_difference,
    tensor_power,
)


def quadratic_terminal(grid):
    # I_2 of the constant square kernel: evaluates to X_1^2 - 1
    return ChaosFunctional(grid, 0.0, {2: tensor_power(StepFunction.constant(grid, 1.0), 2)})


def mixed_functional(grid):
    n = grid.n_cells
    h1 = StepFunction.indicator(grid, 0, n // 2)
    h2 = StepFunction.indicator(grid, n // 4, n)
    k2 = sym_tensor_product(from_step(h1), from_step(h2))
    k3 = tensor_power(h2, 3)
    return ChaosFunctional(grid, 0.75, {1: from_step(h1), 2: k2, 3: k3})


def test_reverse_functional_is_change_of_variables(grid8, batch8):
    F = mixed_functional(grid8)
    assert reverse_functional(reverse_functional(F)).sub(F).max_abs() == 0.0
    got = eval_many([reverse_functional(F)], batch8)[0]
    want = eval_many([F], reverse_batch(batch8))[0]
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_difference_representation_closed_form(grid8, batch8):
    F = quadratic_terminal(grid8)
    walk = batch8.boundary_values()
    x1 = walk[:, -1]
    for b in range(grid8.n_cells + 1):
        t = b * grid8.delta
        want = 2.0 * x1 * walk[:, b] - walk[:, b] ** 2 - t
        got = eval_many([tail_difference(F, b)], batch8)[0]
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_representation_endpoints(grid8):
    F = mixed_functional(grid8)
    assert tail_difference(F, 0).max_abs() == 0.0
    centered = F.sub(ChaosFunctional(grid8, F.mean, {}))
    assert tail_difference(F, grid8.n_cells).sub(centered).max_abs() <= 1e-15


def test_reversed_value_projects_on_reversed_past(grid8):
    F = mixed_functional(grid8)
    Fr = reverse_functional(F)
    n = grid8.n_cells
    for b in range(n + 1):
        want = Fr.sub(conditional_expectation(Fr, n - b, n))
        assert reverse_functional(tail_difference(F, b)).sub(want).max_abs() <= 1e-13


def test_clark_ocone_integrand_closed_form(grid8, batch8):
    phi = clark_ocone_integrand(quadratic_terminal(grid8))
    rev = reverse_batch(batch8)
    rwalk = rev.boundary_values()
    for j in grid8.cells():
        cell = phi.at_cell(j)
        for f in cell.kernels.values():
            assert all(mu[-1] < j for mu in f.data)
        got = eval_many([cell], rev)[0]
        np.testing.assert_allclose(got, 2.0 * rwalk[:, j - 1], atol=1e-12)


def test_backward_ito_gap_is_reversed_quadratic_fluctuation(grid8, batch8):
    F = quadratic_terminal(grid8)
    phi = clark_ocone_integrand(F)
    rev = reverse_batch(batch8)
    for b in (4, 8):
        y = eval_many([tail_difference(F, b)], batch8)[0]
        ito = backward_ito_eval(phi, rev, b)
        window = rev.increments[:, grid8.n_cells - b :]
        want = np.sum(window**2 - grid8.delta, axis=1)
        np.testing.assert_allclose(y - ito, want, atol=1e-12)


def test_backward_ito_rejects_nonpredictable_integrand(grid8, batch8):
    anticipating = ChaosProcess.constant(
        grid8, first_order(StepFunction.constant(grid8, 1.0))
    )
    with pytest.raises(ValueError):
        backward_ito_eval(anticipating, reverse_batch(batch8), 8)


def test_hermite_projection_identity(grid8, batch8):
    h = StepFunction.constant(grid8, 1.0)
    for n in (1, 2, 3):
        for b in range(grid8.n_cells + 1):
            closed = hermite_projection(n, h, b, batch8)
            # the tail h 1_(t_b,1] vanishes only at b = n_cells
            assert (closed is None) == (b == grid8.n_cells)
            if closed is not None:
                kernel_side = eval_many([tail_difference(hermite_functional(h, n), b)], batch8)[0]
                np.testing.assert_allclose(kernel_side, closed, atol=1e-10)


def test_hermite_projection_degenerate_tail(grid8, batch8):
    h = StepFunction.indicator(grid8, 0, 4).scaled(np.sqrt(2.0))
    assert h.norm() == pytest.approx(1.0)
    assert hermite_projection(2, h, 6, batch8) is None
    closed = hermite_projection(2, h, 3, batch8)
    F = ChaosFunctional(grid8, 0.0, {2: tensor_power(h, 2)})
    np.testing.assert_allclose(closed, eval_many([tail_difference(F, 3)], batch8)[0], atol=1e-10)


def test_reversal_index_apis_reject_float_times(grid8, batch8):
    F = quadratic_terminal(grid8)
    q = 2.0 * reverse_batch(batch8).boundary_values()
    with pytest.raises(ValueError, match="integer boundary indices"):
        tail_difference(F, 0.5)
    with pytest.raises(ValueError, match="integer boundary indices"):
        backward_ito_eval(clark_ocone_integrand(F), reverse_batch(batch8), 0.5)
    with pytest.raises(ValueError, match="integer boundary indices"):
        hermite_projection(2, StepFunction.constant(grid8, 1.0), 0.5, batch8)
    with pytest.raises(ValueError, match="integer boundary indices"):
        semimartingale_decomposition_check(q, exact_quadratic_y(batch8, 4), batch8, 0.5)


def test_hermite_projection_needs_unit_norm(grid8, batch8):
    with pytest.raises(ValueError):
        hermite_projection(2, StepFunction.constant(grid8, 2.0), 4, batch8)
    with pytest.raises(ValueError, match="negative"):
        hermite_projection(-1, StepFunction.constant(grid8, 1.0), 4, batch8)


def test_quadratic_covariation_deterministic(grid16):
    n = grid16.n_cells
    m = np.arange(n + 1, dtype=np.float64)
    U = np.tile(0.5 + m * grid16.delta, (3, 1))
    curve = quadratic_covariation(grid16, U, U)
    assert curve.shape == (3, n + 1)
    # base offset plus b cells of squared increment delta^2
    for b in (0, 4, 16):
        want = 0.25 + b * grid16.delta**2
        np.testing.assert_allclose(curve[:, b], want)
    with pytest.raises(ValueError):
        quadratic_covariation(grid16, U[:, :-1], U[:, :-1])
    # one path as a 1-D array of n + 1 boundary values: the caller must keep the path axis
    with pytest.raises(ValueError, match="boundary-sampled"):
        quadratic_covariation(grid16, U[0], U[0])


def exact_quadratic_y(batch, b):
    walk = batch.boundary_values()
    t = b * batch.grid.delta
    return 2.0 * walk[:, -1] * walk[:, b] - walk[:, b] ** 2 - t


def test_decomposition_residual_is_forward_fluctuation(grid16):
    batch = sample_paths(grid16, 500, seed=7)
    q = 2.0 * reverse_batch(batch).boundary_values()
    for b in (4, 12, 16):
        residual = semimartingale_decomposition_check(q, exact_quadratic_y(batch, b), batch, b)
        want = np.sum(batch.increments[:, :b] ** 2 - grid16.delta, axis=1)
        np.testing.assert_allclose(residual, want, atol=1e-12)


def test_decomposition_check_rejects_misshapen_samples(grid8, batch8):
    q = 2.0 * reverse_batch(batch8).boundary_values()
    y = exact_quadratic_y(batch8, 4)
    for bad_q, bad_y in (
        (q[:, :-1], y),            # one boundary short
        (q[:-1], y),               # one path short
        (q[:, 1], y),              # one boundary only
        (q, y[:, None]),           # a column, which would broadcast to (count, count)
        (q, y[:-1]),
    ):
        with pytest.raises(ValueError, match="shape"):
            semimartingale_decomposition_check(bad_q, bad_y, batch8, 4)
