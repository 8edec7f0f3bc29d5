"""Two-sided summands: rank splitting and the forward x backward process.

``summand_fold`` and ``per_boundary_synthesis`` are the builders that
``BFProcess.as_skorohod`` and ``projected_synthesis_process`` replaced:
one ``multiply`` per summand or interval and boundary, summed in order.
They stay here as the oracles of the conditioned-product builders.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from skorochaos.chaos import sum_functionals
from skorochaos.experiments import _ducnualart_integrand, _integrand_family
from skorochaos.kernels import MAX_ORDER, SymKernel
from skorochaos.skorohod import ChaosProcess


def zero(grid):
    return ChaosFunctional(grid, 0.0, {})


def summand_fold(bf, b):
    """Z at boundary b as the sum of each summand's value_at(b), in summand order."""
    return sum_functionals(bf.grid, (s.value_at(b) for s in bf.summands))


def per_boundary_synthesis(step):
    """projected_synthesis_process with each interval's coefficient re-projected and multiplied at every boundary."""
    grid = step.grid
    intervals = list(step.partition.intervals())
    within = [conditional_expectation(F, lo, hi) for (lo, hi), F in zip(intervals, step.values)]

    def summands(b):
        for (lo, hi), F, coef in zip(intervals, step.values, within):
            if lo >= b:
                continue
            if b > hi:
                coef = conditional_expectation(F, lo, b)
            yield multiply(coef, first_order(StepFunction.indicator(grid, lo, min(hi, b))))

    return [zero(grid)] + [sum_functionals(grid, summands(b)) for b in range(1, grid.n_cells + 1)]


def exact(F):
    """Mean bits, the order of the orders, and every kernel's entries in key order with their bits."""
    return F.mean.hex(), list(F.kernels), [[(mu, v.hex()) for mu, v in f.items()] for f in F.kernels.values()]


def per_order(F):
    """Like ``exact``, but blind to the order of the orders."""
    return F.mean.hex(), {n: [(mu, v.hex()) for mu, v in f.items()] for n, f in F.kernels.items()}


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


@pytest.mark.parametrize("n", [4, 8, 16])
def test_summand_value_is_the_conditioned_product(n):
    # M_b N_b = E[P | increments outside (min(b, hi), max(b, hi)]] with P = G1 (X_hi - X_lo) G2
    grid = Grid(n)
    for u in (_integrand_family(grid)["terminal_plus_running"], _ducnualart_integrand(grid)):
        v = ito_skorohod_integrand(u)
        for d in range(grid.depth + 1):
            _, bf = two_sided_approximation(v, Partition.dyadic(grid, d))
            for s in bf.summands:
                P = multiply(s.forward_martingale(s.hi), s.backward)
                for b in range(s.lo + 1, n + 1):
                    want = conditional_expectation(P, min(b, s.hi), max(b, s.hi))
                    assert exact(s.value_at(b)) == exact(want)


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
def test_two_sided_process_is_the_fold_of_the_summand_values(n):
    grid = Grid(n)
    v = ito_skorohod_integrand(brownian_terminal_process(grid).add(brownian_path_process(grid)))
    for d in range(n.bit_length()):
        _, bf = two_sided_approximation(v, Partition.dyadic(grid, d))
        Z = bf.as_skorohod()
        for b in range(n + 1):
            assert exact(Z.at_boundary(b)) == exact(summand_fold(bf, b))


# few values, so sums can cancel to 0.0 and multisets and orders leave and come back
VALUES = st.sampled_from([1.0, -1.0, 0.5, -0.5])
MEANS = st.sampled_from([0.0, 1.0, -0.5])


def drawn_kernel(draw, grid, cells, n):
    multisets = st.lists(st.sampled_from(cells), min_size=n, max_size=n).map(lambda xs: tuple(sorted(xs)))
    return SymKernel(grid, n, draw(st.dictionaries(multisets, VALUES, max_size=3)))


@st.composite
def random_integrands(draw, grid):
    """One functional per cell: orders 1..3 in a shuffled order, values +-1 and +-0.5."""
    cells = list(grid.cells())
    functionals = []
    for _ in cells:
        orders = draw(st.permutations([1, 2, 3]))[: draw(st.integers(0, 3))]
        functionals.append(ChaosFunctional(grid, draw(MEANS), {n: drawn_kernel(draw, grid, cells, n) for n in orders}))
    return ChaosProcess(grid, functionals)


@st.composite
def approximations(draw):
    grid = Grid(draw(st.sampled_from([4, 8, 16])))
    kind = draw(st.sampled_from(["theorem1", "ducnualart", "random"]))
    if kind == "theorem1":
        u = _integrand_family(grid)["terminal_plus_running"]
    elif kind == "ducnualart":
        u = _ducnualart_integrand(grid)
    else:
        u = draw(random_integrands(grid))
    depth = draw(st.integers(0, grid.depth))
    step, bf = two_sided_approximation(ito_skorohod_integrand(u), Partition.dyadic(grid, depth))
    # a split of an order-3 value can pair factors whose product with the increment passes the order cap
    assume(all(s.forward.max_order + 1 + s.backward.max_order <= MAX_ORDER for s in bf.summands))
    return step, bf


@settings(max_examples=60, deadline=None)
@given(case=approximations())
def test_conditioned_products_match_the_per_boundary_builders(case):
    step, bf = case
    Z, old_Z = bf.as_skorohod(), [summand_fold(bf, b) for b in range(bf.grid.n_cells + 1)]
    assert [exact(F) for F in Z.functionals] == [exact(F) for F in old_Z]
    # the order of the orders may differ for direct; the split check reads only max_abs
    direct, old_direct = projected_synthesis_process(step), per_boundary_synthesis(step)
    assert [per_order(F) for F in direct.functionals] == [per_order(F) for F in old_direct]
    gap = max(F.max_abs() for F in Z.sub(direct).functionals)
    old_gap = max(a.sub(b).max_abs() for a, b in zip(old_Z, old_direct))
    assert gap.hex() == old_gap.hex()


@st.composite
def one_sided(draw, grid, cells, orders):
    """A functional on the given cells, its orders ascending as split_two_sided stores them."""
    kernels = {}
    if cells:
        for n in sorted(draw(st.sets(st.sampled_from(orders), max_size=len(orders)))):
            kernels[n] = drawn_kernel(draw, grid, cells, n)
    return ChaosFunctional(grid, draw(MEANS), kernels)


@st.composite
def summand_families(draw):
    """Several summands per window on few cells, so their products share multisets that cancel and come back."""
    grid = Grid(draw(st.sampled_from([4, 8])))
    summands = []
    for lo, hi in Partition.dyadic(grid, draw(st.integers(1, grid.depth))).intervals():
        before, after = list(range(1, lo + 1)), list(range(hi + 1, grid.n_cells + 1))
        for _ in range(draw(st.integers(1, 3))):
            forward = draw(one_sided(grid, before, [1, 2]))
            summands.append(BFSummand(grid, lo, hi, forward, draw(one_sided(grid, after, [1, 2]))))
    return BFProcess(grid, tuple(summands))


@settings(max_examples=150, deadline=None)
@given(bf=summand_families())
def test_two_sided_process_is_the_fold_on_drawn_summands(bf):
    Z = bf.as_skorohod()
    assert [exact(F) for F in Z.functionals] == [exact(summand_fold(bf, b)) for b in range(bf.grid.n_cells + 1)]
