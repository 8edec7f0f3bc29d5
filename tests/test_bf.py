"""Two-sided summands: rank splitting and the forward x backward process."""

import numpy as np
import pytest

from skorochaos import (
    BFProcess,
    BFSummand,
    ChaosFunctional,
    Grid,
    Partition,
    StepFunction,
    brownian_path_process,
    brownian_terminal_process,
    conditional_expectation,
    eval_functional,
    first_order,
    from_step,
    ito_skorohod_integrand,
    max_increment_energy,
    multiply,
    projected_synthesis_process,
    skorohod_process,
    split_two_sided,
    sym_tensor_product,
    two_sided_approximation,
)


def zero(grid):
    return ChaosFunctional(grid, 0.0, {})


def head_tail_functional(grid):
    # mean, both one-sided first-order pieces, and two cross products of
    # different shapes so the coefficient matrix has rank at least two
    n = grid.n_cells
    head = StepFunction.indicator(grid, 0, n // 4)
    tail = StepFunction.indicator(grid, 3 * n // 4, n)
    narrow_head = StepFunction.indicator(grid, 0, n // 8)
    narrow_tail = StepFunction.indicator(grid, 7 * n // 8, n)
    cross = sym_tensor_product(from_step(head), from_step(tail))
    cross = cross.add(sym_tensor_product(from_step(narrow_head), from_step(narrow_tail)).scaled(-3.0))
    F = ChaosFunctional(grid, 0.5, {2: cross})
    F = F.add(first_order(head))
    return F.add(first_order(tail).scaled(-2.0))


def test_summand_rejects_bad_window(grid8):
    with pytest.raises(ValueError):
        BFSummand(grid8, 3, 3, zero(grid8), zero(grid8))
    with pytest.raises(ValueError):
        BFSummand(grid8, 6, 2, zero(grid8), zero(grid8))


def test_summand_rejects_straddling_support(grid8):
    spill = first_order(StepFunction.indicator(grid8, 0, 4))
    with pytest.raises(ValueError):
        BFSummand(grid8, 2, 6, spill, zero(grid8))
    early = first_order(StepFunction.indicator(grid8, 4, 6))
    with pytest.raises(ValueError):
        BFSummand(grid8, 2, 6, zero(grid8), early)


def test_split_reconstructs_functional(grid8):
    F = head_tail_functional(grid8)
    pairs = split_two_sided(F, 2, 6)
    assert len(pairs) >= 2
    total = zero(grid8)
    for g1, g2 in pairs:
        for f in g1.kernels.values():
            assert all(mu[-1] <= 2 for mu in f.data)
        for f in g2.kernels.values():
            assert all(mu[0] > 6 for mu in f.data)
        total = total.add(multiply(g1, g2))
    assert total.sub(F).max_abs() <= 1e-12


def test_split_rejects_window_support(grid8):
    bad = first_order(StepFunction.indicator(grid8, 3, 4))
    with pytest.raises(ValueError):
        split_two_sided(bad, 2, 6)


def test_forward_factor_is_a_martingale(grid8):
    u = brownian_terminal_process(grid8)
    _, bf = two_sided_approximation(ito_skorohod_integrand(u), Partition.dyadic(grid8, 1))
    s = bf.summands[0]
    for b2 in range(grid8.n_cells + 1):
        later = s.forward_martingale(b2)
        for b1 in range(b2 + 1):
            proj = conditional_expectation(later, b1, grid8.n_cells)
            assert proj.sub(s.forward_martingale(b1)).max_abs() <= 1e-12


def test_backward_factor_is_a_reverse_martingale(grid8):
    u = brownian_terminal_process(grid8).add(brownian_path_process(grid8))
    _, bf = two_sided_approximation(ito_skorohod_integrand(u), Partition.dyadic(grid8, 1))
    s = bf.summands[0]
    for b1 in range(grid8.n_cells + 1):
        early = s.backward_martingale(b1)
        for b2 in range(b1, grid8.n_cells + 1):
            proj = conditional_expectation(early, 0, max(b2, s.hi))
            assert proj.sub(s.backward_martingale(b2)).max_abs() <= 1e-12


def test_summand_value_is_pathwise_product(grid8, batch8):
    u = brownian_terminal_process(grid8).add(brownian_path_process(grid8))
    _, bf = two_sided_approximation(ito_skorohod_integrand(u), Partition.dyadic(grid8, 1))
    for s in bf.summands:
        for b in (0, 3, 4, 6, 8):
            got = eval_functional(s.value_at(b), batch8)
            want = eval_functional(s.forward_martingale(b), batch8) * eval_functional(
                s.backward_martingale(b), batch8
            )
            np.testing.assert_allclose(got, want, atol=1e-10)


def test_summand_windows_follow_partition(grid8):
    u = brownian_terminal_process(grid8)
    step, bf = two_sided_approximation(ito_skorohod_integrand(u), Partition.dyadic(grid8, 2))
    intervals = set(step.partition.intervals())
    assert {(s.lo, s.hi) for s in bf.summands} <= intervals


def test_two_sided_process_matches_projected_synthesis(grid8):
    for u in (
        brownian_terminal_process(grid8),
        brownian_terminal_process(grid8).add(brownian_path_process(grid8)),
    ):
        v = ito_skorohod_integrand(u)
        for d in (1, 2):
            step, bf = two_sided_approximation(v, Partition.dyadic(grid8, d))
            Z = bf.as_skorohod()
            direct = projected_synthesis_process(step)
            worst = max(F.max_abs() for F in Z.sub(direct).functionals)
            assert worst <= 1e-12


def test_energy_halves_with_depth(grid16):
    # u = X_1 + X_alpha: residual energy is exactly 4.5 per halving
    u = brownian_terminal_process(grid16).add(brownian_path_process(grid16))
    Y = skorohod_process(u)
    v = ito_skorohod_integrand(u)
    for d in range(4):
        _, bf = two_sided_approximation(v, Partition.dyadic(grid16, d))
        vhat = max_increment_energy(Y.sub(bf.as_skorohod())).value
        assert vhat == pytest.approx(4.5 * 2.0**-d, rel=1e-12)


@pytest.mark.parametrize("n", [8, 16])
def test_cached_forward_factor_keeps_every_bit_and_key(n):
    grid = Grid(n)
    v = ito_skorohod_integrand(brownian_terminal_process(grid).add(brownian_path_process(grid)))
    for d in range(n.bit_length()):
        _, bf = two_sided_approximation(v, Partition.dyadic(grid, d))
        Z = bf.as_skorohod()
        for b in range(n + 1):
            # fresh summands have nothing cached, so each factor is built for this b alone
            fresh = BFProcess(grid, tuple(BFSummand(grid, s.lo, s.hi, s.forward, s.backward) for s in bf.summands))
            got, want = Z.at_boundary(b), fresh.value_at(b)
            assert got.mean.hex() == want.mean.hex()
            assert list(got.kernels) == list(want.kernels)
            for order, f in want.kernels.items():
                assert list(got.kernels[order].items()) == list(f.items())
