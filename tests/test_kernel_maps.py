"""Kernel maps: exact agreement with the dict oracles, and well-formed outputs.

The ``oracle_*`` functions are the implementations of five kernel
builders that edited ``SymKernel.data`` directly, before the multiset
arithmetic moved into ``skorochaos.kernels`` as kernel maps.  They build
every result through the public ``SymKernel`` constructor, which checks
each multiset; the library must agree with them exactly, in values and
in the order of the stored multisets.  ``oracle_project`` is the rule
``project`` followed when it took a set of cells to keep: a multiset
stays when every cell lies in the complement of (a, b].

The maps build their results through a private constructor that does not
re-check the multisets and takes over the dict it is handed, so the
invariant test below checks every output itself: sorted multisets of the
stated order, integer cells in range, Python float values even from int
or ``np.float64`` arguments, no stored zeros, and a dict of its own.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skorochaos.chaos import ChaosFunctional, malliavin_derivative
from skorochaos.experiments import _ducnualart_integrand
from skorochaos.grid import Grid
from skorochaos.kernels import (
    SymKernel,
    add_cell,
    constant_kernel,
    contract,
    from_step,
    move_cell,
    project,
    remove_cell,
    restrict_below_count,
    reverse_kernel,
    sym_tensor_product,
    tensor_power,
)
from skorochaos.paths import StepFunction
from skorochaos.skorohod import (
    ChaosProcess,
    SkorohodProcess,
    extract_region_kernels,
    ito_skorohod_integrand,
    resynthesize,
    skorohod_process,
)

VALUES = st.floats(min_value=-1e3, max_value=1e3)
MEANS = VALUES.filter(lambda x: x != 0.0)


def multisets(n_cells, order):
    return st.lists(st.integers(1, n_cells), min_size=order, max_size=order).map(lambda xs: tuple(sorted(xs)))


def kernels(grid, order):
    return st.dictionaries(multisets(grid.n_cells, order), VALUES, min_size=1, max_size=5).map(
        lambda d: SymKernel(grid, order, d)
    )


@st.composite
def integrands(draw):
    """A process on at most 8 cells; each cell has a nonzero mean and kernels of orders 1-3."""
    grid = Grid(draw(st.integers(1, 8)))
    cells = []
    for _ in grid.cells():
        orders = draw(st.lists(st.integers(1, 3), unique=True, max_size=3))
        cells.append(ChaosFunctional(grid, draw(MEANS), {j: draw(kernels(grid, j)) for j in orders}))
    return ChaosProcess(grid, cells)


def oracle_malliavin_derivative(F, cell):
    if not 1 <= cell <= F.grid.n_cells:
        raise ValueError(f"cell {cell} outside grid")
    mean = 0.0
    ks = {}
    for n, f in F.kernels.items():
        if n == 1:
            mean += f.value((cell,))
            continue
        vals = {}
        for mu, v in f.data.items():
            if cell not in mu:
                continue
            nu = list(mu)
            nu.remove(cell)
            vals[tuple(nu)] = n * v
        if vals:
            ks[n - 1] = SymKernel(F.grid, n - 1, vals)
    return ChaosFunctional(F.grid, mean, ks)


def oracle_skorohod_process(u):
    grid = u.grid
    acc_mean_k1 = {}
    acc = {}
    snapshots = [ChaosFunctional(grid, 0.0, {})]
    for c in grid.cells():
        F = u.at_cell(c)
        if F.mean != 0.0:
            acc_mean_k1[(c,)] = acc_mean_k1.get((c,), 0.0) + F.mean
        for j, g in F.kernels.items():
            l = j + 1
            dest = acc.setdefault(l, {})
            for nu, val in g.data.items():
                rho = tuple(sorted(nu + (c,)))
                mult = rho.count(c)
                dest[rho] = dest.get(rho, 0.0) + val * mult / l
        kernels = {}
        if acc_mean_k1:
            kernels[1] = SymKernel(grid, 1, dict(acc_mean_k1))
        for l, d in acc.items():
            if d:
                base = SymKernel(grid, l, dict(d))
                kernels[l] = kernels[l].add(base) if l in kernels else base
        snapshots.append(ChaosFunctional(grid, 0.0, kernels))
    return SkorohodProcess(grid, snapshots)


def oracle_ito_skorohod_integrand(u):
    grid = u.grid
    out = []
    for a in grid.cells():
        base = u.at_cell(a)
        add = {}
        for cs in grid.cells():
            w = 1.0 if cs < a else (0.5 if cs == a else 0.0)
            if w == 0.0:
                continue
            F = u.at_cell(cs)
            for j, g in F.kernels.items():
                for sigma, val in g.data.items():
                    if a not in sigma:
                        continue
                    nu = list(sigma)
                    nu.remove(a)
                    rho = tuple(sorted(nu + [cs]))
                    dest = add.setdefault(j, {})
                    dest[rho] = dest.get(rho, 0.0) + val * w * rho.count(cs)
        kernels = dict(base.kernels)
        for j, d in add.items():
            k = SymKernel(grid, j, d)
            kernels[j] = kernels[j].add(k) if j in kernels else k
        out.append(ChaosFunctional(grid, base.mean, kernels))
    return ChaosProcess(grid, out)


def oracle_resynthesize(grid, kernels):
    orders = sorted({l for l, _ in kernels})
    snapshots = []
    for b in range(grid.n_cells + 1):
        ks = {}
        for l in orders:
            merged = {}
            for q in range(0, l + 1):
                f = kernels.get((l, q))
                if f is None:
                    continue
                for mu, v in f.data.items():
                    if sum(1 for c in mu if c <= b) == q:
                        merged[mu] = v
            if merged:
                ks[l] = SymKernel(grid, l, merged)
        snapshots.append(ChaosFunctional(grid, 0.0, ks))
    return SkorohodProcess(grid, snapshots)


def oracle_stored_multisets(kernels):
    # set.update on each dict in turn: the fill sets the iteration order
    out = set()
    for f in kernels:
        out.update(f.data)
    return out


def oracle_extract_region_kernels(u, Y):
    grid = u.grid
    out = {}
    for l in range(1, Y.at_boundary(grid.n_cells).max_order + 1):
        support = oracle_stored_multisets(F.kernels[l] for F in Y.functionals if l in F.kernels)
        for q in range(0, l + 1):
            vals = {}
            for mu in support:
                s = 0.0
                for i in range(q):
                    rest = mu[:i] + mu[i + 1 :]
                    Fu = u.at_cell(mu[i])
                    if l == 1:
                        s += Fu.mean
                    else:
                        g = Fu.kernels.get(l - 1)
                        if g is not None:
                            s += g.value(rest)
                v = s / l
                if v != 0.0:
                    vals[mu] = v
            out[(l, q)] = SymKernel(grid, l, vals)
    return out


def assert_same_region_kernels(got, want):
    assert list(got) == list(want)
    for key, f in want.items():
        assert got[key].order == f.order
        assert list(got[key].items()) == list(f.items()), key


def plain(F):
    """Mean, kernel orders in stored order, and every kernel's data."""
    return F.mean, list(F.kernels), {n: f.data for n, f in F.kernels.items()}


def assert_same_functionals(got, want):
    assert len(got) == len(want)
    for F, G in zip(got, want):
        assert plain(F) == plain(G)


@settings(max_examples=150, deadline=None)
@given(u=integrands())
def test_builders_match_dict_oracles_exactly(u):
    for F in u.functionals:
        for c in u.grid.cells():
            assert plain(malliavin_derivative(F, c)) == plain(oracle_malliavin_derivative(F, c))
    assert_same_functionals(skorohod_process(u).functionals, oracle_skorohod_process(u).functionals)
    assert_same_functionals(ito_skorohod_integrand(u).functionals, oracle_ito_skorohod_integrand(u).functionals)
    Y = skorohod_process(u)
    region = extract_region_kernels(u, Y)
    assert_same_region_kernels(region, oracle_extract_region_kernels(u, Y))
    assert_same_functionals(
        resynthesize(u.grid, region).functionals, oracle_resynthesize(u.grid, region).functionals
    )


def test_region_read_off_matches_oracle_on_ducnualart_integrand():
    # at N=16 the multiset order of this read-off shows in the CSV, and
    # only the set.update fill of the support gives the oracle's order
    u = _ducnualart_integrand(Grid(16))
    Y = skorohod_process(u)
    assert_same_region_kernels(extract_region_kernels(u, Y), oracle_extract_region_kernels(u, Y))


def oracle_project(f, a, b):
    return {mu: v for mu, v in f.data.items() if all(not a < c <= b for c in mu)}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_project_matches_cell_set_rule(data):
    grid = Grid(data.draw(st.integers(1, 8)))
    f = data.draw(kernels(grid, data.draw(st.integers(1, 4))))
    a, b = sorted(data.draw(st.lists(st.integers(0, grid.n_cells), min_size=2, max_size=2)))
    assert list(project(f, a, b).items()) == list(oracle_project(f, a, b).items())


def assert_well_formed(f, grid, order):
    assert f.grid == grid and f.order == order
    for mu, v in f.items():
        assert type(mu) is tuple and len(mu) == order
        assert list(mu) == sorted(mu)
        assert all(type(c) is int and 1 <= c <= grid.n_cells for c in mu)
        assert type(v) is float and v != 0.0


@st.composite
def map_inputs(draw):
    grid = Grid(draw(st.integers(1, 6)))
    p = draw(st.integers(1, 3))
    q = draw(st.integers(1, 5 - p))
    f, g = draw(kernels(grid, p)), draw(kernels(grid, q))
    return grid, f, g, draw(st.integers(1, grid.n_cells)), draw(st.integers(1, grid.n_cells))


@settings(max_examples=200, deadline=None)
@given(inputs=map_inputs(), c=VALUES, c_int=st.integers(-1000, 1000), data=st.data())
def test_every_map_output_is_well_formed(inputs, c, c_int, data):
    grid, f, g, a, b = inputs
    p, q = f.order, g.order
    h = data.draw(kernels(grid, p))
    step = StepFunction(grid, data.draw(st.lists(VALUES, min_size=grid.n_cells, max_size=grid.n_cells)))
    lo, hi = sorted(data.draw(st.lists(st.integers(0, grid.n_cells), min_size=2, max_size=2)))
    outputs = [
        (f.scaled(c), p),
        (f.scaled(c_int), p),
        (f.scaled(np.float64(c)), p),
        (f.add(h), p),
        (f.sub(h), p),
        (f.add(f.scaled(-1.0)), p),
        (sym_tensor_product(f, g), p + q),
        (project(f, lo, hi), p),
        (reverse_kernel(f), p),
        (add_cell(f, a), p + 1),
        (add_cell(f, np.int64(a)), p + 1),
        (move_cell(f, a, b, 0.5), p),
        (move_cell(f, np.int64(a), np.int64(b), 0.5), p),
        (move_cell(f, a, a, 1.0), p),
        (move_cell(f, a, b, 2), p),
        (move_cell(f, a, b, np.float64(c)), p),
        (SymKernel.zero(grid, p), p),
        (tensor_power(step, p), p),
        (from_step(step), 1),
        (constant_kernel(grid, p, c), p),
        (constant_kernel(grid, p, c_int), p),
        (constant_kernel(grid, p, np.float64(c)), p),
    ]
    outputs += [(restrict_below_count(f, k, hi), p) for k in range(p + 1)]
    outputs += [(contract(f, g, r), p + q - 2 * r) for r in range(1, min(p, q) + 1) if p + q > 2 * r]
    if p > 1:
        outputs += [(remove_cell(f, a), p - 1), (remove_cell(f, np.int64(a)), p - 1)]
    for out, order in outputs:
        assert_well_formed(out, grid, order)
        assert all(out.data is not x.data for x in (f, g, h))
    assert list(f.scaled(np.float64(c)).items()) == list(f.scaled(c).items())
    assert list(move_cell(f, a, b, np.float64(c)).items()) == list(move_cell(f, a, b, c).items())
    assert list(add_cell(f, np.int64(a)).items()) == list(add_cell(f, a).items())
    assert list(move_cell(f, np.int64(a), np.int64(b), 0.5).items()) == list(move_cell(f, a, b, 0.5).items())


@pytest.mark.parametrize("cell", [0, 9, -1, 1.5, 1.0, True])
def test_cell_maps_check_their_cell(cell):
    grid = Grid(8)
    f = tensor_power(StepFunction.constant(grid, 1.0), 2)
    F = ChaosFunctional(grid, 0.0, {2: f})
    u = ChaosProcess.constant(grid, F)
    calls = [
        lambda c: add_cell(f, c),
        lambda c: remove_cell(f, c),
        lambda c: move_cell(f, c, 2, 1.0),
        lambda c: move_cell(f, 1, c, 1.0),
        lambda c: malliavin_derivative(F, c),
        lambda c: u.at_cell(c),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="need an integer cell index 1..8"):
            call(cell)
        for good in (np.int64(1), np.int64(8)):
            out = call(good)
            stored = out.kernels.values() if isinstance(out, ChaosFunctional) else [out]
            assert all(type(c) is int for k in stored for mu, _ in k.items() for c in mu)
