"""Acceptance gate: ten pinned checks, one test per criterion.

Each test drives the public surface (experiments or module calls) at a
fixed size, seed, and tolerance, and also asserts a wall-clock budget so
regressions in asymptotics get caught, not just regressions in values.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from skorochaos import (
    ChaosFunctional,
    ExperimentConfig,
    Grid,
    GridStoppingTime,
    Partition,
    StepFunction,
    backward_ito_eval,
    brownian_path_process,
    brownian_terminal_process,
    clark_ocone_integrand,
    conditional_expectation,
    eval_functional,
    hermite_projection,
    ito_skorohod_integrand,
    projected_synthesis_process,
    quadratic_covariation,
    reverse_batch,
    reverse_functional,
    run_experiment,
    sample_paths,
    semimartingale_decomposition_check,
    step_approximation,
    stopped_integral,
    tail_difference,
    tensor_power,
    two_sided_approximation,
)

EXACT = 1e-12
PATHWISE = 1e-10


def run_ok(name, limit, **kw):
    cfg = ExperimentConfig(experiment=name, **kw)
    t0 = time.perf_counter()
    res = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    assert res.ok, res.failures
    assert elapsed < limit, f"{name} took {elapsed:.2f}s, budget {limit}s"
    return res


def test_criterion_01_region_geometry():
    for M in (1, 2, 3, 4):
        for t in (0.25, 0.5):
            res = run_ok("geometry", 1.0, M=M, t=t, samples=1000, seed=11)
            (row,) = res.rows
            assert row[2] == 1000
            assert row[3] is True and row[4] is True


def test_criterion_02_isometry_monte_carlo():
    res = run_ok("isometry", 10.0, N=8, L=3, paths=100_000, seed=1)
    orders = {(row[0], row[1]) for row in res.rows}
    assert all(n <= 3 and m <= 3 for n, m in orders)
    assert len(orders) >= 6


def test_criterion_03_martingale_defect():
    res = run_ok("martingale", 1.0, N=16, seed=1)
    names = {row[0] for row in res.rows}
    assert names == {
        "deterministic_one",
        "terminal_value",
        "running_value",
        "terminal_plus_running",
    }
    assert all(row[-1] <= EXACT for row in res.rows)


def test_criterion_04_region_kernels_and_bound():
    res = run_ok("ducnualart", 5.0, N=32, seed=1)
    stats = dict((row[0], row[1]) for row in res.rows)
    assert stats["resynthesis_max_residual"] <= EXACT
    assert stats["majoration_lhs"] <= 1.05 * stats["vhat"]


def test_criterion_05_two_sided_approximation():
    t0 = time.perf_counter()
    res = run_ok("theorem1", 30.0, N=16, depth=4, seed=1)
    grid = Grid(16)
    u = brownian_terminal_process(grid).add(brownian_path_process(grid))
    v = ito_skorohod_integrand(u)
    batch = sample_paths(grid, 200, seed=77)
    for d in range(1, 5):
        step, bf = two_sided_approximation(v, Partition.dyadic(grid, d))
        zc = bf.as_skorohod().eval_batch(batch)
        yc = projected_synthesis_process(step).eval_batch(batch)
        assert float(np.max(np.abs(zc - yc))) <= PATHWISE
    vhats = [row[1] for row in res.rows]
    assert all(b < a for a, b in zip(vhats, vhats[1:]))
    assert vhats[-1] <= 0.10 * vhats[0] + EXACT
    assert all(row[1] <= row[2] + EXACT for row in res.rows)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_06_reversed_representations():
    t0 = time.perf_counter()
    grid = Grid(8)
    batch = sample_paths(grid, 100, seed=1)
    rev = reverse_batch(batch)
    one = StepFunction.constant(grid, 1.0)
    for n in (1, 2, 3):
        F = ChaosFunctional(grid, 0.0, {n: tensor_power(one, n)})
        Fh = reverse_functional(F)
        for b in (0, 4, 8):
            lhs = eval_functional(reverse_functional(tail_difference(F, b)), rev)
            rhs = eval_functional(Fh, rev) - eval_functional(
                conditional_expectation(Fh, 8 - b, 8), rev
            )
            assert float(np.max(np.abs(lhs - rhs))) <= PATHWISE
        hl = eval_functional(tail_difference(F, 4), batch)
        hr = hermite_projection(n, one, 4, batch)
        assert hr is not None
        assert float(np.max(np.abs(hl - hr))) <= PATHWISE

    def gap_mse(N):
        g = Grid(N)
        big = sample_paths(g, 10_000, seed=3)
        F2 = ChaosFunctional(g, 0.0, {2: tensor_power(StepFunction.constant(g, 1.0), 2)})
        y = eval_functional(tail_difference(F2, N // 2), big)
        s = backward_ito_eval(clark_ocone_integrand(F2), reverse_batch(big), N // 2)
        return float(np.mean((y - s) ** 2))

    mses = [gap_mse(N) for N in (8, 16, 32)]
    for coarse, fine in zip(mses, mses[1:]):
        assert 1.6 <= coarse / fine <= 2.6
    assert time.perf_counter() - t0 < 30.0


def test_criterion_07_decomposition_residual_scaling():
    t0 = time.perf_counter()

    def decomposition_rms(N):
        grid = Grid(N)
        batch = sample_paths(grid, 10_000, seed=5)
        q = 2.0 * reverse_batch(batch).boundary_values()
        bv = batch.boundary_values()
        k = N // 2
        y = 2.0 * bv[:, -1] * bv[:, k] - bv[:, k] ** 2 - 0.5
        residual = semimartingale_decomposition_check(q, y, batch, k)
        return float(np.sqrt(np.mean(residual**2)))

    rmses = [decomposition_rms(N) for N in (64, 128, 256)]
    for coarse, fine in zip(rmses, rmses[1:]):
        assert 1.2 <= coarse / fine <= 1.7

    grid = Grid(256)
    batch = sample_paths(grid, 10_000, seed=5)
    rbv = reverse_batch(batch).boundary_values()
    curve = quadratic_covariation(grid, 2.0 * rbv, rbv)
    for t in (0.25, 0.5, 0.75, 1.0):
        vals = curve[:, grid.boundary_index(t)]
        gap = float(np.mean(vals)) - 2.0 * t
        se = float(np.std(vals, ddof=1) / np.sqrt(batch.count))
        assert abs(gap) <= 3.0 * se
    assert time.perf_counter() - t0 < 60.0


def test_criterion_08_optional_sampling():
    res = run_ok("stopping", 30.0, N=16, paths=100_000, seed=1)
    z_rows = [row for row in res.rows if row[1] in (
        "one", "stop_time", "x_at_stop", "x_at_stop_capped", "sign_x", "tanh_x",
    )]
    assert len(z_rows) >= 5
    assert all(row[2] == 100_000 and abs(row[5]) <= 3.0 for row in z_rows)


def test_criterion_09_stopped_integral_identity():
    t0 = time.perf_counter()
    grid = Grid(16)
    batch = sample_paths(grid, 100, seed=1)
    rules = (
        GridStoppingTime.deterministic(grid, 8),
        GridStoppingTime.deterministic(grid, 16),
        GridStoppingTime.level_hitting(grid, 0.3),
        GridStoppingTime.level_hitting(grid, 10.0),
        GridStoppingTime.first_exit(grid, -0.5, 0.5),
    )
    for u in (
        brownian_terminal_process(grid),
        brownian_terminal_process(grid).add(brownian_path_process(grid)),
    ):
        v = ito_skorohod_integrand(u)
        for d in (1, 2):
            step = step_approximation(v, Partition.dyadic(grid, d))
            for lhs, rhs in stopped_integral(step, rules, batch):
                assert float(np.max(np.abs(lhs - rhs))) <= PATHWISE
    assert time.perf_counter() - t0 < 5.0


SRC = Path(__file__).resolve().parent.parent / "src"


def test_criterion_10_worker_determinism():
    # Two interpreters with different string-hash seeds (and worker counts)
    # must print the same bytes: no output order may follow set or dict
    # iteration over hashed strings.
    pinned = (
        ("isometry", dict(N=8, L=3, paths=100_000, seed=1)),
        ("reversal", dict(N=64, n=2, t=0.5, paths=10_000, seed=1)),
        ("stopping", dict(N=16, paths=100_000, seed=1)),
    )
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    for name, kw in pinned:
        flags = [arg for key, value in kw.items() for arg in (f"--{key}", str(value))]
        texts = []
        for hash_seed, workers in (("0", 1), ("12345", 4)):
            env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-m", "skorochaos.cli", name, *flags, "--workers", str(workers)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            texts.append(proc.stdout)
        assert texts[0] == texts[1], f"{name} output changed between interpreters"
