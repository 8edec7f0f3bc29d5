"""eval_many against the term-by-term evaluator it replaced, byte for byte.

``oracle_eval_many`` is the evaluator that compiled each functional on
its own and rebuilt every Hermite product for every functional holding
it.  The library shares products across functionals; it must still give
every row the same float operations in the same order, so the outputs
are compared with ``tobytes()``, which also tells -0.0 from 0.0.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skorochaos.chaos import ChaosFunctional, constant_functional, eval_many, first_order, hermite_values
from skorochaos.grid import Grid
from skorochaos.kernels import SymKernel, tensor_power
from skorochaos.paths import PathBatch, StepFunction, sample_paths
from skorochaos.reversal import clark_ocone_integrand
from skorochaos.skorohod import brownian_terminal_process, skorohod_process

ORACLE_BLOCK = 8192


def oracle_eval_many(functionals, batch):
    progs = []
    for F in functionals:
        prog = []
        for n, f in sorted(F.kernels.items()):
            base = math.factorial(n) * F.grid.delta ** (n / 2.0)
            for mu, v in f.items():
                factors = tuple((len(tuple(g)), c) for c, g in itertools.groupby(mu))
                prog.append((base * v, factors))
        progs.append(prog)
    count = batch.count
    out = np.empty((len(functionals), count), dtype=np.float64)
    m_max = max((m for prog in progs for _, fs in prog for m, _ in fs), default=0)
    sqrt_d = math.sqrt(batch.grid.delta)
    for b0 in range(0, count, ORACLE_BLOCK):
        b1 = min(b0 + ORACLE_BLOCK, count)
        htab = hermite_values(m_max, batch.increments[b0:b1] / sqrt_d)
        for fi, F in enumerate(functionals):
            acc = np.full(b1 - b0, F.mean)
            for coef, factors in progs[fi]:
                term = htab[factors[0][0]][:, factors[0][1] - 1].copy()
                for m, c in factors[1:]:
                    term *= htab[m][:, c - 1]
                acc += coef * term
            out[fi, b0:b1] = acc
    return out


def assert_same_bytes(functionals, batch):
    got = eval_many(functionals, batch)
    want = oracle_eval_many(functionals, batch)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


MEANS = st.one_of(st.just(-0.0), st.just(0.0), st.floats(-3, 3))
VALUES = st.one_of(st.floats(-3, 3).filter(lambda v: v != 0.0), st.sampled_from([0.5, -1.25]))


@st.composite
def functional_lists(draw):
    """Functionals on at most 8 cells that share multisets, in varied orders."""
    grid = Grid(draw(st.integers(1, 8)))
    orders = draw(st.lists(st.integers(1, 3), unique=True, max_size=3))
    pool = {
        n: draw(
            st.lists(
                st.lists(st.integers(1, grid.n_cells), min_size=n, max_size=n).map(lambda xs: tuple(sorted(xs))),
                unique=True,
                min_size=1,
                max_size=6,
            )
        )
        for n in orders
    }
    fs = []
    for _ in range(draw(st.integers(0, 6))):
        ks = {}
        chosen = draw(st.lists(st.sampled_from(orders), unique=True)) if orders else []
        for n in chosen:
            mus = draw(st.permutations(pool[n]))[: draw(st.integers(1, len(pool[n])))]
            ks[n] = SymKernel(grid, n, {mu: draw(VALUES) for mu in mus})
        fs.append(ChaosFunctional(grid, draw(MEANS), ks))
    return grid, fs


@settings(max_examples=200, deadline=None)
@given(case=functional_lists(), count=st.integers(0, 40), seed=st.integers(0, 2**64 - 1))
def test_eval_many_matches_term_by_term_oracle(case, count, seed):
    grid, fs = case
    assert_same_bytes(fs, sample_paths(grid, count, seed))


def _kernel(grid, order, values):
    return SymKernel(grid, order, dict(values))


def test_opposite_orders_of_shared_multisets():
    # the second functional meets (1, 2) and (3, 4) the other way round, so it needs a group of its own
    grid = Grid(4)
    a = ChaosFunctional(grid, 0.5, {2: _kernel(grid, 2, [((1, 2), 0.3), ((2, 3), -1.1), ((3, 4), 2.7)])})
    b = ChaosFunctional(grid, -0.0, {2: _kernel(grid, 2, [((3, 4), 0.3), ((1, 4), 1.9), ((1, 2), 2.7)])})
    c = ChaosFunctional(grid, 0.0, {2: _kernel(grid, 2, [((1, 2), 0.3), ((1, 3), 0.7), ((3, 4), 2.7)])})
    batch = sample_paths(grid, 500, seed=3)
    assert_same_bytes([a, b, c], batch)
    assert_same_bytes([b, a, c], batch)


def test_a_coefficient_that_returns_starts_a_new_run():
    # A, B, A on one multiset, and A, absent, A: the third row must not join the first row's run
    grid = Grid(4)
    fs = [ChaosFunctional(grid, 0.0, {2: _kernel(grid, 2, [((1, 2), v)])}) for v in (0.3, -1.1, 0.3, 0.3, -1.1)]
    batch = sample_paths(grid, 200, seed=7)
    assert_same_bytes(fs, batch)
    assert_same_bytes(fs[:3], batch)
    gap = ChaosFunctional(grid, 0.0, {2: _kernel(grid, 2, [((3, 4), 0.3)])})
    assert_same_bytes([fs[0], gap, fs[0]], batch)


def test_negative_zero_mean_survives_next_to_other_functionals():
    grid = Grid(4)
    h = StepFunction(grid, np.array([1.0, -2.0, 0.5, 3.0]))
    fs = [first_order(h), constant_functional(grid, -0.0), ChaosFunctional(grid, -0.0, {})]
    batch = sample_paths(grid, 300, seed=5)
    assert_same_bytes(fs, batch)
    assert np.signbit(eval_many(fs, batch)[1:]).all()


@pytest.mark.parametrize("n_cells", [8, 16])
def test_skorohod_snapshots_match_oracle(n_cells):
    grid = Grid(n_cells)
    Y = skorohod_process(brownian_terminal_process(grid))
    assert_same_bytes(Y.functionals, sample_paths(grid, 1000, seed=11))


@pytest.mark.parametrize("n_cells", [8, 16, 64])
@pytest.mark.parametrize("order", [2, 3])
def test_backward_ito_window_functionals_match_oracle(n_cells, order):
    # the integrands backward_ito_eval evaluates over the reversed window (1/2, 1]
    grid = Grid(n_cells)
    F = ChaosFunctional(grid, 0.0, {order: tensor_power(StepFunction.constant(grid, 1.0), order)})
    phi = clark_ocone_integrand(F)
    window = [phi.at_cell(j) for j in range(n_cells // 2 + 1, n_cells + 1)]
    assert_same_bytes(window, sample_paths(grid, 300, seed=13))


@pytest.mark.parametrize("count", [0, 1, 8193])
@pytest.mark.parametrize("parts", [1, 3])
def test_batch_sizes_and_workers_match_oracle(count, parts):
    """Each path's row is the same whether the batch is evaluated whole or in
    ``parts`` contiguous slices, one call each, as a split over workers would,
    or as a permuted selection of rows with gaps, as ``eval_at`` groups them."""
    grid = Grid(6)
    Y = skorohod_process(brownian_terminal_process(grid))
    fs = [constant_functional(grid, -0.0), *Y.functionals]
    batch = sample_paths(grid, count, seed=17)
    bounds = np.linspace(0, count, parts + 1).astype(int)
    got = np.concatenate(
        [eval_many(fs, PathBatch(grid, batch.increments[a:b])) for a, b in zip(bounds, bounds[1:])],
        axis=1,
    )
    want = oracle_eval_many(fs, batch)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    perm = np.random.default_rng(parts).permutation(count)
    rows = perm[perm % 3 != 1]
    picked = eval_many(fs, PathBatch(grid, batch.increments[rows]))
    assert picked.tobytes() == want[:, rows].tobytes()


def test_no_functionals():
    grid = Grid(4)
    assert eval_many([], sample_paths(grid, 10, seed=1)).shape == (0, 10)
