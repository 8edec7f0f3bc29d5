"""Integral processes: closed forms, defect zeros, extraction, energies."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import product_expectation, second_moment
from skorochaos.chaos import (
    _EVAL_BLOCK,
    ChaosFunctional,
    conditional_expectation,
    constant_functional,
    eval_many,
    first_order,
    malliavin_derivative,
)
from skorochaos.grid import Grid, Partition
from skorochaos.kernels import SymKernel, tensor_power, value_table
from skorochaos.paths import PathBatch, StepFunction, sample_paths
from skorochaos.skorohod import (
    _increment_second_moment,
    ChaosProcess,
    SkorohodProcess,
    StepProcess,
    brownian_path_process,
    brownian_terminal_process,
    extract_region_kernels,
    ito_skorohod_integrand,
    martingale_defect,
    max_increment_energy,
    max_martingale_defect,
    projected_synthesis_process,
    region_energy_bound,
    resynthesis_residual,
    resynthesize,
    skorohod_process,
    step_approximation,
)
from skorochaos.stopping import GridStoppingTime, stopped_integral


def terminal_plus_path(grid):
    return brownian_terminal_process(grid).add(brownian_path_process(grid))


def test_integral_of_deterministic_one_is_brownian(grid8, batch8):
    u = ChaosProcess.constant(grid8, constant_functional(grid8, 1.0))
    Y = skorohod_process(u)
    curve = Y.eval_batch(batch8)
    np.testing.assert_allclose(curve, batch8.boundary_values(), atol=1e-13)


def test_terminal_integrand_closed_form(grid8, batch8):
    # delta(X_1 1_[0,t]) = X_1 X_t - t
    Y = skorohod_process(brownian_terminal_process(grid8))
    bv = batch8.boundary_values()
    for b in (0, 2, 5, 8):
        t = b * grid8.delta
        got = eval_many([Y.at_boundary(b)], batch8)[0]
        np.testing.assert_allclose(got, bv[:, -1] * bv[:, b] - t, atol=1e-12)


def test_increment_energy_closed_form(grid8):
    # for u = X_1: E[(Y_t - Y_s)^2] = (t - s) + (t - s)^2
    Y = skorohod_process(brownian_terminal_process(grid8))
    for s, t in [(0.0, 0.25), (0.25, 0.75), (0.5, 1.0), (0.0, 1.0)]:
        want = (t - s) + (t - s) ** 2
        diff = Y.at_boundary(grid8.boundary_index(t)).sub(Y.at_boundary(grid8.boundary_index(s)))
        assert second_moment(diff) == pytest.approx(want, rel=1e-12)


def test_martingale_defect_zero_for_family(grid16):
    for u in (
        ChaosProcess.constant(grid16, constant_functional(grid16, 1.0)),
        brownian_terminal_process(grid16),
        brownian_path_process(grid16),
        terminal_plus_path(grid16),
    ):
        Y = skorohod_process(u)
        for a, b in [(0, 8), (4, 12), (8, 9), (15, 16)]:
            assert martingale_defect(Y, a, b) == 0.0


def test_process_indices_are_checked(grid8):
    u = brownian_terminal_process(grid8)
    Y = skorohod_process(u)
    for i in (-1, 9, 0.5, 8.0, True):
        with pytest.raises(ValueError, match="out of range"):
            Y.at_boundary(i)
    for k in (0, 9, 1.5, 1.0, True):
        with pytest.raises(ValueError, match="out of range"):
            u.at_cell(k)
    assert Y.at_boundary(np.int64(8)) is Y.at_boundary(8)
    assert u.at_cell(np.int64(1)) is u.at_cell(1)


def mixed_order_process(grid):
    """An integral process with kernels of orders 1, 2 and 3 at every boundary after 0."""
    second = ChaosFunctional(grid, 0.0, {2: tensor_power(StepFunction.constant(grid, 1.0), 2)})
    u = terminal_plus_path(grid).add(ChaosProcess.constant(grid, second.add(constant_functional(grid, 0.5))))
    return skorohod_process(u)


@st.composite
def eval_at_cases(draw):
    """A process, a batch, and one to three index arrays: random, all one index, or every index."""
    grid = Grid(draw(st.sampled_from([4, 8])))
    n = grid.n_cells
    kind = draw(st.sampled_from(["random", "shared", "every"]))
    count = draw(st.integers(n + 1 if kind == "every" else 1, 40))
    batch = sample_paths(grid, count, draw(st.integers(0, 2**64 - 1)))
    indices = []
    for _ in range(draw(st.integers(1, 3))):
        if kind == "shared":
            idx = [draw(st.integers(0, n))] * count
        elif kind == "every":
            idx = draw(st.permutations(list(range(n + 1)) + [draw(st.integers(0, n)) for _ in range(count - n - 1)]))
        else:
            idx = draw(st.lists(st.integers(0, n), min_size=count, max_size=count))
        indices.append(np.array(idx, dtype=draw(st.sampled_from([np.int64, np.int32, np.uint8]))))
    return mixed_order_process(grid), batch, indices


@settings(max_examples=60, deadline=None)
@given(case=eval_at_cases())
def test_eval_at_reads_the_curve_bit_for_bit(case):
    _assert_eval_at_matches_curve(*case)


def _assert_eval_at_matches_curve(Y, batch, indices):
    """eval_at against the eval_batch columns, bit for bit, leaving the increments as they were."""
    before = batch.increments.copy()
    curve = Y.eval_batch(batch)
    got = Y.eval_at(batch, *indices)
    assert got.shape == (len(indices), batch.count)
    for row, idx in zip(got, indices):
        want = curve[np.arange(batch.count), idx]
        assert np.array_equal(row.view(np.int64), want.view(np.int64))
    assert np.array_equal(batch.increments.view(np.int64), before.view(np.int64))


def test_eval_at_gathers_a_group_larger_than_an_evaluation_block():
    # one index tuple on _EVAL_BLOCK + 1 scattered paths, so eval_many splits
    # that gathered group into two blocks; a few other paths form small groups
    grid = Grid(4)
    big = _EVAL_BLOCK + 1
    batch = sample_paths(grid, big + 7, seed=11)
    tuples = np.c_[np.tile([[3], [4]], big), [[0, 1, 2, 4, 0, 1, 2], [4, 1, 3, 4, 2, 2, 0]]]
    tuples = tuples[:, np.random.default_rng(0).permutation(batch.count)]
    assert np.unique(tuples, axis=1, return_counts=True)[1].max() == big
    _assert_eval_at_matches_curve(mixed_order_process(grid), batch, list(tuples))


def test_eval_at_with_one_path_per_group(grid8):
    n = grid8.n_cells
    pairs = np.array(list(itertools.product(range(n + 1), repeat=2)))
    pairs = pairs[np.random.default_rng(1).permutation(len(pairs))]
    batch = sample_paths(grid8, len(pairs), seed=12)
    _assert_eval_at_matches_curve(mixed_order_process(grid8), batch, [pairs[:, 0], pairs[:, 1]])


def test_eval_at_checks_its_indices(grid8, batch8):
    Y = mixed_order_process(grid8)
    ok = np.zeros(batch8.count, dtype=np.int64)
    for bad, match in (
        (np.full(batch8.count, -1), "out of range"),
        (np.full(batch8.count, 9), "out of range"),
        (np.zeros(batch8.count), "integer dtype"),
        (np.zeros(batch8.count, dtype=bool), "integer dtype"),
        (np.zeros(batch8.count - 1, dtype=np.int64), "one boundary index per path"),
    ):
        with pytest.raises(ValueError, match=match):
            Y.eval_at(batch8, ok, bad)
    empty = PathBatch(grid8, np.empty((0, 8)))
    none = np.zeros(0, dtype=np.int64)
    assert Y.eval_at(empty, none, none).shape == (2, 0)
    with pytest.raises(ValueError, match="one boundary index per path"):
        Y.eval_at(empty, ok)


def test_index_apis_reject_float_times(grid8):
    Y = skorohod_process(brownian_terminal_process(grid8))
    with pytest.raises(ValueError, match="integer boundary indices"):
        Y.at_boundary(0.5)
    with pytest.raises(ValueError, match="integer boundary indices"):
        martingale_defect(Y, 0, 0.5)


def duality_gap(F, u, b):
    """|E[F * integral(u, b)] - E<DF, u 1_(0,t_b]>| at boundary index b, both exact."""
    lhs = product_expectation(F, skorohod_process(u).at_boundary(b))
    rhs = sum(product_expectation(malliavin_derivative(F, c), u.at_cell(c)) for c in range(1, b + 1)) * u.grid.delta
    return abs(lhs - rhs)


def test_duality_gap_zero(grid8):
    F = ChaosFunctional(grid8, 0.0, {2: tensor_power(StepFunction.constant(grid8, 1.0), 2)})
    for u in (brownian_terminal_process(grid8), terminal_plus_path(grid8)):
        assert duality_gap(F, u, 8) == pytest.approx(0.0, abs=1e-14)
        assert duality_gap(F, u, 4) == pytest.approx(0.0, abs=1e-14)


def test_sobolev_norm_closed_form(grid8):
    # v_a = I_1(g_a) with g_a = 1 + 1_(0,a], worth 2 below the diagonal
    # cell, 3/2 on it, 1 above; the first-order part and the derivative
    # part each contribute |g_a|^2, so the norm is 2 delta sum_m |g_m|^2
    v = ito_skorohod_integrand(brownian_terminal_process(grid8))
    n = grid8.n_cells
    want = 0.0
    for m in range(1, n + 1):
        norm_sq = grid8.delta * (4.0 * (m - 1) + 2.25 + (n - m))
        want += 2.0 * grid8.delta * norm_sq
    assert want == pytest.approx(5.0 - 0.5 / n, rel=1e-12)
    assert v.sobolev_norm_sq() == pytest.approx(want, rel=1e-12)


def test_step_process_rejects_support_in_own_interval(grid8):
    part = Partition.dyadic(grid8, 1)
    bad = first_order(StepFunction.indicator(grid8, 0, 4))
    with pytest.raises(ValueError):
        StepProcess(grid8, part, (bad, constant_functional(grid8, 0.0)))


def test_step_approximation_projects_out_interval(grid8):
    v = ito_skorohod_integrand(terminal_plus_path(grid8))
    step = step_approximation(v, Partition.dyadic(grid8, 2))
    # constructor validates support; values are conditioned averages
    for (lo, hi), F in zip(step.partition.intervals(), step.values):
        for f in F.kernels.values():
            assert all(not (lo < c <= hi) for mu in f.data for c in mu)


def product_sum(step, batch, b):
    """sum_i F_i (X_{t ^ t_{i+1}} - X_{t ^ t_i}) at t = t_b, pathwise."""
    lhs, _ = stopped_integral(step, [GridStoppingTime.deterministic(step.grid, b)], batch)[0]
    return lhs


def test_product_sum_synthesis_equals_direct_integral(grid8, batch8):
    # coefficients carry no kernel support inside their own interval, so
    # the trace term vanishes and the product sum is the Skorohod curve
    v = ito_skorohod_integrand(brownian_terminal_process(grid8))
    step = step_approximation(v, Partition.dyadic(grid8, 1))
    curve = skorohod_process(step.as_process()).eval_batch(batch8)
    for b in (0, 2, 4, 8):
        np.testing.assert_allclose(
            curve[:, b], product_sum(step, batch8, b), atol=1e-12
        )


def test_projected_synthesis_reprojects_past_interval_ends(grid8, batch8):
    # once t passes an interval the coefficient is conditioned on the
    # complement of (t_i, t], so at t = 1 the first one collapses to its
    # mean and the curve departs from the plain product sum
    v = ito_skorohod_integrand(brownian_terminal_process(grid8))
    step = step_approximation(v, Partition.dyadic(grid8, 1))
    Z = projected_synthesis_process(step)
    curve = Z.eval_batch(batch8)
    np.testing.assert_allclose(
        curve[:, 4], product_sum(step, batch8, 4), atol=1e-12
    )
    gap = np.abs(curve[:, 8] - product_sum(step, batch8, 8))
    assert gap.max() > 1e-3


def test_energy_report_dyadic_table(grid16):
    Y = skorohod_process(brownian_terminal_process(grid16))
    energy = max_increment_energy(Y)
    assert isinstance(energy, float)
    assert energy == pytest.approx(2.0, rel=1e-12)
    table = dict(dyadic_energies(Y, _increment_second_moment))
    assert set(table) == set(range(grid16.depth + 1))
    assert max(table.values()) == energy


def test_variation_oracle_for_terminal_integrand(grid16):
    # dyadic depth d: sum over 2^d increments of (h + h^2), h = 2^-d
    Y = skorohod_process(brownian_terminal_process(grid16))
    for d, energy in dyadic_energies(Y, _increment_second_moment):
        h = 2.0**-d
        assert energy == pytest.approx(1.0 + h, rel=1e-12)


def test_extraction_and_resynthesis_round_trip(grid8):
    for u in (brownian_terminal_process(grid8), terminal_plus_path(grid8)):
        Y = skorohod_process(u)
        kernels = extract_region_kernels(u, Y)
        back = resynthesize(grid8, kernels)
        worst = max(F.max_abs() for F in Y.sub(back).functionals)
        assert worst <= 1e-12


def test_extraction_known_values_for_terminal_integrand(grid8):
    u = brownian_terminal_process(grid8)
    kernels = extract_region_kernels(u, skorohod_process(u))
    f21 = kernels[(2, 1)]
    f22 = kernels[(2, 2)]
    assert all(v == pytest.approx(0.5) for v in f21.data.values())
    assert all(v == pytest.approx(1.0) for v in f22.data.values())
    assert region_energy_bound(kernels) == pytest.approx(1.0, rel=1e-12)
    assert max_increment_energy(skorohod_process(u)) == pytest.approx(2.0)


def test_read_off_against_another_process_leaves_a_residual(grid8):
    # the values come from u and only the multisets from the process, so
    # reading u off the integral of another integrand cannot rebuild it
    u = brownian_terminal_process(grid8)
    other = skorohod_process(brownian_path_process(grid8))
    back = resynthesize(grid8, extract_region_kernels(u, other))
    worst = max(F.max_abs() for F in other.sub(back).functionals)
    assert worst > 1e-3
    # a process on a finer grid has cells the integrand does not reach
    finer = skorohod_process(brownian_terminal_process(Grid(16)))
    with pytest.raises(ValueError, match="grid or order"):
        extract_region_kernels(u, finer)


def test_region_energy_bound_reads_an_absent_kernel_as_zero(grid8):
    f = tensor_power(StepFunction.constant(grid8, 1.0), 2)
    got = region_energy_bound({(2, 2): f})
    assert got.hex() == region_energy_bound({(2, 1): SymKernel.zero(grid8, 2), (2, 2): f}).hex()
    assert got == pytest.approx(2.0 * f.norm_sq(), rel=1e-12)


def step_coeff_strategy(grid):
    # first-order coefficients supported outside a fixed middle interval
    n = grid.n_cells
    head = StepFunction.indicator(grid, 0, n // 4)
    tail = StepFunction.indicator(grid, 3 * n // 4, n)
    return st.builds(
        lambda a, b, c: constant_functional(grid, c)
        .add(first_order(head.scaled(a)))
        .add(first_order(tail.scaled(b))),
        st.floats(-2, 2),
        st.floats(-2, 2),
        st.floats(-1, 1),
    )


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_integral_of_random_step_is_defect_free(data):
    grid = Grid(8)
    part = Partition(grid, (0, 2, 6, 8))
    vals = tuple(data.draw(step_coeff_strategy(grid)) for _ in range(3))
    # middle-interval coefficient must avoid its own interval: zero it there
    step = StepProcess(
        grid,
        part,
        (
            conditional_expectation(vals[0], 0, 2),
            conditional_expectation(vals[1], 2, 6),
            conditional_expectation(vals[2], 6, 8),
        ),
    )
    Y = skorohod_process(step.as_process())
    for a, b in [(0, 4), (2, 8), (4, 6)]:
        assert martingale_defect(Y, a, b) <= 1e-12


def per_pair_max(Y):
    n = Y.grid.n_cells
    return max(martingale_defect(Y, a, b) for a in range(n + 1) for b in range(a + 1, n + 1))


SNAPSHOT_VALUES = st.one_of(
    st.floats(-4, 4, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 0.30000000000000004, 5e-324]),
)


@st.composite
def snapshot_processes(draw, sizes=(1, 2, 3, 4, 8)):
    """A process of unrelated snapshots: means of either sign or signed zero, orders 1-2 at some boundaries only."""
    grid = Grid(draw(st.sampled_from(sizes)))
    n = grid.n_cells
    values = SNAPSHOT_VALUES
    # a few multisets per order, so that most of them recur across boundaries
    pools = {
        l: draw(st.lists(st.lists(st.integers(1, n), min_size=l, max_size=l).map(lambda c: tuple(sorted(c))),
                         min_size=1, max_size=4, unique=True))
        for l in (1, 2)
    }
    functionals = []
    for _ in range(n + 1):
        kernels = {
            l: SymKernel(grid, l, draw(st.dictionaries(st.sampled_from(pool), values, max_size=len(pool))))
            for l, pool in pools.items()
            if draw(st.booleans())
        }
        functionals.append(ChaosFunctional(grid, draw(values), kernels))
    return SkorohodProcess(grid, functionals)


@settings(max_examples=300, deadline=None)
@given(Y=snapshot_processes())
def test_max_martingale_defect_is_the_per_pair_max_bit_for_bit(Y):
    assert max_martingale_defect(Y).hex() == per_pair_max(Y).hex()


@pytest.mark.parametrize("n", [2, 4, 8])
def test_max_martingale_defect_sees_a_process_that_is_no_martingale(n):
    # Y_b = (b / N) X_1 keeps the cells outside (a, b] in its conditioned increment
    grid = Grid(n)
    X1 = first_order(StepFunction.constant(grid, 1.0))
    Y = SkorohodProcess(grid, [X1.scaled(b / n) for b in range(n + 1)])
    worst = max_martingale_defect(Y)
    assert worst > 1e-3
    assert worst.hex() == per_pair_max(Y).hex()


def test_max_gap_spread_checks_its_snapshots(grid8):
    f = tensor_power(StepFunction.constant(grid8, 1.0), 2)
    with pytest.raises(ValueError, match="one snapshot per boundary"):
        value_table(grid8, 2, [f] * 8)
    with pytest.raises(ValueError, match="grid or order"):
        value_table(grid8, 1, [f] * 9)
    assert value_table(grid8, 2, [None] * 9).max_gap_spread() == 0.0


# The snapshot bodies that the value tables replaced, kept as oracles: each
# builds the dict kernels of a difference or a rebuilt process per interval
# or per boundary.


def oracle_increment_moment(Y, lo, hi):
    return second_moment(Y.at_boundary(hi).sub(Y.at_boundary(lo)))


def dyadic_energies(Y, moment):
    """(depth, summed moment(Y, lo, hi) over the intervals) for each dyadic partition."""
    return [
        (part.n_intervals.bit_length() - 1, sum(moment(Y, lo, hi) for lo, hi in part.intervals()))
        for part in Partition.dyadic_family(Y.grid)
    ]


def oracle_resynthesis_residual(Y, kernels):
    rebuilt = resynthesize(Y.grid, kernels)
    return max(F.max_abs() for F in Y.sub(rebuilt).functionals)


def oracle_max_gap_spread(grid, order, snapshots):
    datas = [{} if f is None else dict(f.items()) for f in snapshots]
    worst = 0.0
    for mu in set().union(*datas):
        values = [d.get(mu, 0.0) for d in datas]
        lo = 0
        for c in (*mu, grid.n_cells + 1):
            if c > lo:
                gap = values[lo:c]
                spread = max(gap) - min(gap)
                if spread > worst:
                    worst = spread
                lo = c
    return worst


def assert_tables_match_oracles(Y, kernels=None):
    if Y.grid.n_cells & (Y.grid.n_cells - 1) == 0:
        for part in Partition.dyadic_family(Y.grid):
            for lo, hi in part.intervals():
                assert _increment_second_moment(Y, lo, hi).hex() == oracle_increment_moment(Y, lo, hi).hex()
        oracle = max(energy for _, energy in dyadic_energies(Y, oracle_increment_moment))
        assert max_increment_energy(Y).hex() == oracle.hex()
    assert max_martingale_defect(Y).hex() == per_pair_max(Y).hex()
    for l in Y.orders():
        snapshots = [F.kernels.get(l) for F in Y.functionals]
        got = value_table(Y.grid, l, snapshots).max_gap_spread()
        assert got.hex() == oracle_max_gap_spread(Y.grid, l, snapshots).hex()
    if kernels is not None:
        assert resynthesis_residual(Y, kernels).hex() == oracle_resynthesis_residual(Y, kernels).hex()


@st.composite
def read_off_cases(draw, sizes=(1, 2, 3, 4, 8)):
    """A snapshot process and region kernels on Y's multisets and on others, some (l, q) absent."""
    Y = draw(snapshot_processes(sizes))
    n = Y.grid.n_cells
    kernels = {}
    for l in (1, 2):
        stored = sorted({mu for F in Y.functionals if l in F.kernels for mu, _ in F.kernels[l].items()})
        fresh = st.lists(st.integers(1, n), min_size=l, max_size=l).map(lambda c: tuple(sorted(c)))
        pool = st.sampled_from(stored) | fresh if stored else fresh
        for q in range(l + 1):
            if draw(st.booleans()):
                kernels[l, q] = SymKernel(Y.grid, l, draw(st.dictionaries(pool, SNAPSHOT_VALUES, max_size=5)))
    return Y, kernels


@settings(max_examples=300, deadline=None)
@given(case=read_off_cases(sizes=(1, 2, 4, 8)))
def test_value_table_reductions_match_the_snapshot_oracles_bit_for_bit(case):
    assert_tables_match_oracles(*case)


@settings(max_examples=100, deadline=None)
@given(case=read_off_cases(sizes=(3,)))
def test_resynthesis_residual_matches_its_oracle_off_dyadic_grids(case):
    assert_tables_match_oracles(*case)


def test_value_tables_follow_a_multiset_that_cancels_and_comes_back(grid8):
    # (1, 3) cancels to an exact 0.0 at boundary 4, so the kernel drops it,
    # and it comes back at 6 behind (2, 5): its dict position has moved
    a = SymKernel(grid8, 2, {(1, 3): 0.5, (2, 5): 0.25})
    b = SymKernel(grid8, 2, {(1, 3): 0.5 - 0.1, (2, 5): 1.0})
    cancel = SymKernel(grid8, 2, {(1, 3): -0.5})
    first = first_order(StepFunction.indicator(grid8, 0, 3))
    functionals = []
    for x in range(grid8.n_cells + 1):
        if x < 4:
            k = {2: a.scaled(x)}
        elif x < 6:
            k = {2: a.add(cancel).scaled(x)}
        else:
            k = {2: SymKernel(grid8, 2, {(2, 5): 1.0}).add(b.scaled(x))}
        functionals.append(ChaosFunctional(grid8, 0.1 * x, k).add(first.scaled(x % 3)))
    assert list(functionals[4].kernels[2].items()) == [((2, 5), 1.0)]
    assert [mu for mu, _ in functionals[6].kernels[2].items()] == [(2, 5), (1, 3)]
    Y = SkorohodProcess(grid8, functionals)
    assert_tables_match_oracles(Y, {(2, 1): b, (2, 2): a, (1, 1): first.kernels[1]})
    # the difference of two processes cancels a multiset at some boundaries only
    Z = skorohod_process(terminal_plus_path(grid8))
    assert_tables_match_oracles(Y.sub(Z), extract_region_kernels(terminal_plus_path(grid8), Z))


def dense_random_process(grid, seed):
    """Snapshots storing most multisets of orders 1-3 with random values, each in a shuffled key order."""
    rng = np.random.default_rng(seed)
    pools = {l: list(itertools.combinations_with_replacement(range(1, grid.n_cells + 1), l)) for l in (1, 2, 3)}
    functionals = []
    for _ in range(grid.n_cells + 1):
        kernels = {}
        for l, pool in pools.items():
            keep = [pool[i] for i in rng.permutation(len(pool)) if rng.random() < 0.8]
            kernels[l] = SymKernel(grid, l, dict(zip(keep, rng.normal(size=len(keep)).tolist())))
        functionals.append(ChaosFunctional(grid, float(rng.normal()), kernels))
    return SkorohodProcess(grid, functionals)


@pytest.mark.parametrize("seed", range(4))
def test_value_table_reductions_match_the_oracles_on_long_sums(seed):
    # a hundred and more random terms per kernel sum: a pairwise or reordered sum would change the bits
    Y = dense_random_process(Grid(8), seed)
    u = terminal_plus_path(Grid(8))
    kernels = {(l, q): f for (l, q), f in extract_region_kernels(u, skorohod_process(u)).items()}
    kernels[3, 1] = Y.at_boundary(8).kernels[3].scaled(0.5)
    assert_tables_match_oracles(Y, kernels)


def test_resynthesis_residual_of_the_ducnualart_read_off_matches_its_oracle():
    from skorochaos.experiments import _ducnualart_integrand

    for n in (4, 8):
        u = _ducnualart_integrand(Grid(n))
        Y = skorohod_process(u)
        kernels = extract_region_kernels(u, Y)
        assert_tables_match_oracles(Y, kernels)
        assert resynthesis_residual(Y, kernels) == 0.0


def test_resynthesis_residual_of_a_foreign_read_off_matches_its_oracle(grid8):
    # u read off the integral of another Grid(8) integrand leaves a residual;
    # a Grid(16) process cannot be read against Grid(8) region kernels
    u = brownian_terminal_process(grid8)
    other = skorohod_process(brownian_path_process(grid8))
    kernels = extract_region_kernels(u, other)
    got = resynthesis_residual(other, kernels)
    assert got > 1e-3
    assert got.hex() == oracle_resynthesis_residual(other, kernels).hex()
    finer = skorohod_process(brownian_terminal_process(Grid(16)))
    with pytest.raises(ValueError, match="grid or order"):
        resynthesis_residual(finer, extract_region_kernels(u, skorohod_process(u)))


def test_resynthesis_residual_and_the_table_maps_reject_bad_input(grid8):
    u = terminal_plus_path(grid8)
    Y = skorohod_process(u)
    kernels = extract_region_kernels(u, Y)
    f = kernels[2, 1]
    bad = [
        ({**kernels, (2, 3): f}, "outside q = 0..2"),
        ({**kernels, (2, -1): f}, "outside q = 0..2"),
        ({**kernels, (1, 0): f}, "grid or order"),
        ({(2, 1): SymKernel(Grid(4), 2, {(1, 2): 1.0})}, "grid or order"),
        ({(0, 0): f}, "order 0 outside"),
        ({(6, 1): f}, "order 6 outside"),
    ]
    for regions, match in bad:
        with pytest.raises(ValueError, match=match):
            resynthesis_residual(Y, regions)
    snapshots = [F.kernels.get(2) for F in Y.functionals]
    for wrong in (snapshots[:-1], snapshots + [None], []):
        with pytest.raises(ValueError, match="one snapshot per boundary"):
            value_table(grid8, 2, wrong)
    with pytest.raises(ValueError, match="grid or order"):
        value_table(grid8, 1, snapshots)
    table = value_table(grid8, 2, snapshots)
    for q in (3, -1, 1.0, True):
        with pytest.raises(ValueError, match="outside q"):
            table.max_region_gap({q: f})
    with pytest.raises(ValueError, match="grid or order"):
        table.max_region_gap({1: kernels[1, 1]})


def test_value_table_layout(grid8):
    Y = skorohod_process(brownian_terminal_process(grid8))
    table = Y.value_table(2)
    assert Y.value_table(2) is table
    assert table.values.shape == (grid8.n_cells + 1, len(table.multisets))
    assert table.cells.tolist() == [list(mu) for mu in table.multisets]
    for b, F in enumerate(Y.functionals):
        stored = list(F.kernels[2].items()) if 2 in F.kernels else []
        assert [table.multisets[i] for i in table.key_order[b]] == [mu for mu, _ in stored]
        assert table.values[b, table.key_order[b]].tolist() == [v for _, v in stored]
    assert table.weights.tolist() == [1.0 if mu[0] == mu[1] else 2.0 for mu in table.multisets]


def test_theorem1_builds_each_conditional_expectation_once(monkeypatch):
    from skorochaos import bf, experiments, skorohod
    from skorochaos.chaos import conditional_expectation as real
    from skorochaos.experiments import ExperimentConfig, run_experiment

    seen, held = {}, []

    def counting(F, a, b):
        held.append(F)  # keeps every id in use for the whole run
        key = (id(F), a, b)
        seen[key] = seen.get(key, 0) + 1
        return real(F, a, b)

    for module in (bf, experiments, skorohod):
        monkeypatch.setattr(module, "conditional_expectation", counting)
    assert run_experiment(ExperimentConfig(experiment="theorem1", N=16, depth=4)).ok
    # step_approximation conditions each of the 16 cells' values once per depth 0..4; the
    # two-sided builders condition products kernel by kernel and call it no more
    assert len(held) == 16 * 5
    assert {key: n for key, n in seen.items() if n > 1} == {}
