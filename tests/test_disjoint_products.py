"""Products of functionals on disjoint cells, bit for bit against the general path.

``oracle_multiply`` is ``multiply`` as it was before the disjoint case
was split off: every product runs ``contract`` for every r, and a full
contraction adds ``coef * f.inner(g)`` to the mean.  On disjoint supports
the contractions with r >= 1 are empty, yet adding them still turns a
mean of -0.0 into 0.0 and files an empty kernel under its order, which
fixes where that order sits in ``kernels``.  ``multiply`` must repeat
both, so the comparison is by ``==``, by the sign of every zero, and by
the key order of the kernels and of every kernel's entries.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skorochaos.chaos import ChaosFunctional, multiply
from skorochaos.grid import Grid
from skorochaos.kernels import SymKernel, contract, disjoint_tensor_product, sym_tensor_product

# tiny values make some products underflow to zero, which every path must drop
VALUES = st.floats(min_value=-1e3, max_value=1e3) | st.sampled_from([1e-170, -1e-170, 5e-324])
MEANS = st.sampled_from([0.0, -0.0]) | st.floats(min_value=-1e3, max_value=1e3)


def oracle_multiply(F, G):
    F._check(G)
    grid = F.grid
    mean = F.mean * G.mean
    acc = {}

    def put(n, k):
        acc[n] = acc[n].add(k) if n in acc else k

    for n, f in F.kernels.items():
        if G.mean != 0.0:
            put(n, f.scaled(G.mean))
    for n, g in G.kernels.items():
        if F.mean != 0.0:
            put(n, g.scaled(F.mean))
    for p, f in F.kernels.items():
        for q, g in G.kernels.items():
            for r in range(min(p, q) + 1):
                n = p + q - 2 * r
                coef = math.factorial(r) * math.comb(p, r) * math.comb(q, r)
                if n == 0:
                    mean += coef * f.inner(g)
                else:
                    put(n, contract(f, g, r).scaled(coef))
    return ChaosFunctional(grid, mean, acc)


def exact(F):
    """Mean with its sign, kernel orders in stored order, and every kernel's entries in order."""
    return (
        F.mean,
        math.copysign(1.0, F.mean),
        list(F.kernels),
        [[(mu, v, math.copysign(1.0, v)) for mu, v in f.items()] for f in F.kernels.values()],
    )


def product_or_error(F, G, mult):
    try:
        return exact(mult(F, G))
    except ValueError as exc:
        return str(exc)


@st.composite
def functional(draw, grid, cells):
    orders = draw(st.lists(st.integers(1, 3), unique=True, max_size=3)) if cells else []
    kernels = {}
    for n in orders:
        multisets = st.lists(st.sampled_from(cells), min_size=n, max_size=n).map(lambda xs: tuple(sorted(xs)))
        kernels[n] = SymKernel(grid, n, draw(st.dictionaries(multisets, VALUES, min_size=1, max_size=6)))
    return ChaosFunctional(grid, draw(MEANS), kernels)


@st.composite
def disjoint_pairs(draw):
    grid = Grid(draw(st.integers(1, 8)))
    side = draw(st.lists(st.sampled_from("FG-"), min_size=grid.n_cells, max_size=grid.n_cells))
    f_cells = [c for c, s in zip(grid.cells(), side) if s == "F"]
    g_cells = [c for c, s in zip(grid.cells(), side) if s == "G"]
    return draw(functional(grid, f_cells)), draw(functional(grid, g_cells))


@settings(max_examples=300, deadline=None)
@given(pair=disjoint_pairs())
def test_disjoint_products_match_general_path(pair):
    F, G = pair
    assert F.cells().isdisjoint(G.cells())
    for A, B in ((F, G), (G, F)):
        got = product_or_error(A, B, multiply)
        assert got == product_or_error(A, B, oracle_multiply)
        if not isinstance(got, str):
            assert all(type(v) is float for f in multiply(A, B).kernels.values() for _, v in f.items())


def test_empty_contractions_keep_order_and_zero_sign():
    grid = Grid(8)
    F = ChaosFunctional(
        grid, -0.0, {3: SymKernel(grid, 3, {(1, 2, 2): 0.5, (1, 3, 4): -1.5}), 1: SymKernel(grid, 1, {(2,): 2.0})}
    )
    G = ChaosFunctional(
        grid, 0.0, {2: SymKernel(grid, 2, {(5, 8): 1.25, (6, 6): -0.75}), 1: SymKernel(grid, 1, {(7,): 3.0})}
    )
    P = multiply(F, G)
    # the empty contractions of (3, 2) file orders 3 and 1, so the order-3 product of (1, 2) lands after 5
    assert list(P.kernels) == [5, 3, 4, 2]
    # -0.0 * 0.0 is -0.0; the empty full contraction of (1, 1) adds 0.0
    assert P.mean == 0.0 and math.copysign(1.0, P.mean) == 1.0
    assert exact(P) == exact(oracle_multiply(F, G))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_disjoint_tensor_product_is_sym_tensor_product(data):
    grid = Grid(data.draw(st.integers(1, 8)))
    p = data.draw(st.integers(1, 3))
    q = data.draw(st.integers(1, 5 - p))
    inside = frozenset(data.draw(st.lists(st.integers(1, grid.n_cells), max_size=grid.n_cells)))

    def kernel(n, cells):
        multisets = st.lists(st.integers(1, grid.n_cells), min_size=n, max_size=n).map(lambda xs: tuple(sorted(xs)))
        drawn = data.draw(st.dictionaries(multisets, VALUES, max_size=6))
        return SymKernel(grid, n, {mu: v for mu, v in drawn.items() if cells.issuperset(mu)})

    f, g = kernel(p, inside), kernel(q, frozenset(grid.cells()) - inside)
    assert list(disjoint_tensor_product(f, g).items()) == list(sym_tensor_product(f, g).items())


def test_disjoint_tensor_product_order_cap():
    grid = Grid(4)
    f = SymKernel(grid, 3, {(1, 1, 2): 1.0})
    g = SymKernel(grid, 3, {(3, 4, 4): 1.0})
    with pytest.raises(ValueError, match="exceeds the cap"):
        disjoint_tensor_product(f, g)
