"""Stopping rules and the identities that survive stopping exactly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import second_moment
from skorochaos import (
    Grid,
    GridStoppingTime,
    Partition,
    PathBatch,
    brownian_path_process,
    brownian_terminal_process,
    ito_skorohod_integrand,
    max_increment_energy,
    optional_sampling_check,
    sample_paths,
    skorohod_process,
    step_approximation,
    stopped_integral,
)


def test_deterministic_rule(grid8, batch8):
    bv = batch8.boundary_values()
    S = GridStoppingTime.deterministic(grid8, 4)
    assert np.all(S.eval_walk(bv) == 4)
    np.testing.assert_allclose(S.eval_walk(bv) * grid8.delta, 0.5)
    assert np.all(GridStoppingTime.deterministic(grid8, np.int64(8)).eval_walk(bv) == 8)
    for bad in (0.5, 0.3, 9, -1, True):
        with pytest.raises(ValueError, match="integer boundary indices|is not 0 <= a <= b"):
            GridStoppingTime.deterministic(grid8, bad)


def test_level_hitting_convention(grid8):
    # a path that steps up then down: hits 0.5 at the second boundary
    inc = np.array([[0.3, 0.3, -0.6, 0.0, 0.0, 0.0, 0.0, 0.0]])
    batch = PathBatch(grid8, inc)
    S = GridStoppingTime.level_hitting(grid8, 0.5)
    assert S.eval_walk(batch.boundary_values()).tolist() == [2]
    # a path that never reaches the level stops at time 1
    low = PathBatch(grid8, -np.abs(inc)).boundary_values()
    assert S.eval_walk(low).tolist() == [grid8.n_cells]
    assert (S.eval_walk(low) * grid8.delta).tolist() == [1.0]
    # a finite level that no path reaches stays valid; a NaN one is refused, as it would never fire
    assert GridStoppingTime.level_hitting(grid8, 10.0).eval_walk(low).tolist() == [grid8.n_cells]
    with pytest.raises(ValueError, match="NaN"):
        GridStoppingTime.level_hitting(grid8, float("nan"))


def test_first_exit_convention(grid8):
    inc = np.array([[0.2, 0.2, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0]])
    batch = PathBatch(grid8, inc)
    S = GridStoppingTime.first_exit(grid8, -0.5, 0.5)
    assert S.eval_walk(batch.boundary_values()).tolist() == [3]
    down = PathBatch(grid8, -inc)
    assert S.eval_walk(down.boundary_values()).tolist() == [3]
    with pytest.raises(ValueError):
        GridStoppingTime.first_exit(grid8, 0.1, 0.5)


@pytest.mark.parametrize(
    "kind, params, match",
    [
        ("deterministic", (0.5,), "integer boundary indices"),
        ("deterministic", (100,), "is not 0 <= a <= b"),
        ("deterministic", (True,), "integer boundary indices"),
        ("deterministic", (4, 8), "takes 1 parameter"),
        ("bogus", (0.5,), "unknown stopping kind"),
        ("level-hitting", (float("nan"),), "NaN"),
        ("level-hitting", ("0.5",), "real parameters"),
        ("level-hitting", (), "takes 1 parameter"),
        ("first-exit", (0.5, -0.5), "band must contain"),
        ("first-exit", (-0.5, float("nan")), "band must contain"),
        ("first-exit", [-0.5, 0.5], "takes 2 parameter"),
    ],
)
def test_a_rule_built_directly_is_checked(grid8, kind, params, match):
    with pytest.raises(ValueError, match=match):
        GridStoppingTime(grid8, kind, params)


def test_a_rule_built_directly_equals_the_classmethods(grid8):
    assert GridStoppingTime(grid8, "deterministic", (np.int64(4),)) == GridStoppingTime.deterministic(grid8, 4)
    assert type(GridStoppingTime(grid8, "deterministic", (np.int64(4),)).params[0]) is int
    assert GridStoppingTime(grid8, "level-hitting", (0.5,)) == GridStoppingTime.level_hitting(grid8, 0.5)
    assert GridStoppingTime(grid8, "first-exit", (-0.5, 0.5)) == GridStoppingTime.first_exit(grid8, -0.5, 0.5)


def test_labels(grid8):
    assert GridStoppingTime.deterministic(grid8, 8).label() == "deterministic(1)"
    assert GridStoppingTime.deterministic(grid8, 4).label() == "deterministic(0.5)"
    assert GridStoppingTime.deterministic(grid8, 0).label() == "deterministic(0)"
    assert GridStoppingTime.level_hitting(grid8, 0.5).label() == "level-hitting(0.5)"
    assert GridStoppingTime.first_exit(grid8, -0.5, 0.5).label() == "first-exit(-0.5,0.5)"


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(-2.0, 2.0, allow_nan=False))
def test_decision_ignores_increments_after_stop(seed, filler):
    grid = Grid(8)
    batch = sample_paths(grid, 16, seed=seed)
    for S in (
        GridStoppingTime.level_hitting(grid, 0.5),
        GridStoppingTime.first_exit(grid, -0.75, 0.75),
    ):
        idx = S.eval_walk(batch.boundary_values())
        inc = batch.increments.copy()
        for i, b in enumerate(idx):
            inc[i, b:] = filler
        tampered = PathBatch(grid, inc)
        assert np.array_equal(S.eval_walk(tampered.boundary_values()), idx)


def test_stopped_integral_identity(grid8, batch8):
    rules = (
        GridStoppingTime.deterministic(grid8, 4),
        GridStoppingTime.deterministic(grid8, 8),
        GridStoppingTime.level_hitting(grid8, 0.5),
        GridStoppingTime.first_exit(grid8, -0.5, 0.5),
    )
    integrands = (
        brownian_terminal_process(grid8),
        brownian_terminal_process(grid8).add(brownian_path_process(grid8)),
    )
    for u in integrands:
        v = ito_skorohod_integrand(u)
        for d in (1, 2):
            step = step_approximation(v, Partition.dyadic(grid8, d))
            for lhs, rhs in stopped_integral(step, rules, batch8):
                assert float(np.max(np.abs(lhs - rhs))) <= 1e-10


def test_optional_sampling_panel(grid16):
    batch = sample_paths(grid16, 4000, seed=33)
    Y = skorohod_process(brownian_terminal_process(grid16))
    S = GridStoppingTime.first_exit(grid16, -0.5, 0.5)
    T = GridStoppingTime.deterministic(grid16, 16)
    rows = optional_sampling_check(Y, S, T, batch)
    assert len(rows) >= 5
    for _, n_paths, _, _, z in rows:
        assert n_paths == 4000
        assert abs(z) <= 4.0


def test_optional_sampling_rows_rebuilt_from_their_parts(grid16):
    # every row from S and T on the boundary walk, the eval_batch columns and the walk itself, bit for bit
    batch = sample_paths(grid16, 3000, seed=34)
    Y = skorohod_process(brownian_terminal_process(grid16).add(brownian_path_process(grid16)))
    T = GridStoppingTime.deterministic(grid16, 16)
    rows = np.arange(batch.count)
    curve = Y.eval_batch(batch)
    bv = batch.boundary_values()
    for S in (GridStoppingTime.first_exit(grid16, -0.5, 0.5), GridStoppingTime.level_hitting(grid16, 0.3)):
        s_idx = S.eval_walk(bv)
        diff = curve[rows, T.eval_walk(bv)] - curve[rows, s_idx]
        x_s = bv[rows, s_idx]
        panel = {
            "one": np.ones(batch.count),
            "stop_time": s_idx * grid16.delta,
            "x_at_stop": x_s,
            "x_at_stop_capped": bv[rows, np.minimum(s_idx, 4)],
            "sign_x": np.sign(x_s),
            "tanh_x": np.tanh(x_s),
        }
        want = []
        for name, g in panel.items():
            prod = g * diff
            est = float(np.mean(prod))
            se = float(np.std(prod, ddof=1) / np.sqrt(batch.count))
            want.append((name, batch.count, est, se, 0.0 if se == 0.0 and est == 0.0 else est / se))
        assert optional_sampling_check(Y, S, T, batch) == want


def test_optional_sampling_rejects_a_batch_on_another_grid(grid16, batch8):
    Y = skorohod_process(brownian_terminal_process(grid16))
    S = GridStoppingTime.first_exit(grid16, -0.5, 0.5)
    T = GridStoppingTime.deterministic(grid16, 16)
    with pytest.raises(ValueError, match="grid"):
        optional_sampling_check(Y, S, T, batch8)
    with pytest.raises(ValueError, match="grid"):
        S.eval_walk(batch8.boundary_values())


def test_optional_sampling_rejects_unordered_times(grid8, batch8):
    Y = skorohod_process(brownian_terminal_process(grid8))
    S = GridStoppingTime.deterministic(grid8, 8)
    T = GridStoppingTime.deterministic(grid8, 4)
    with pytest.raises(ValueError):
        optional_sampling_check(Y, S, T, batch8)


def test_boundary_second_moments_bounded_by_energy(grid16):
    for u in (
        brownian_terminal_process(grid16),
        brownian_terminal_process(grid16).add(brownian_path_process(grid16)),
    ):
        Y = skorohod_process(u)
        curve = np.array([second_moment(Y.at_boundary(b)) for b in range(grid16.n_cells + 1)])
        assert curve[0] == 0.0
        assert float(curve.max()) <= max_increment_energy(Y) + 1e-12
