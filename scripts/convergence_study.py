"""Print the convergence tables behind the two main approximation claims.

First table: residual increment energy of the two-sided martingale
approximation on dyadic partitions, against its Sobolev-norm bound.  The
energy halves per depth level for the pinned integrand.

Second table: backward discrete-integral gap (mean square) and the
forward-decomposition residual (root mean square) of the reversed
representation of X_1^2 - 1, across grid sizes.  The first scales like
1/N, the second like 1/sqrt(N).
"""

import argparse
import sys

import numpy as np

from skorochaos import (
    ChaosFunctional,
    ExperimentConfig,
    Grid,
    StepFunction,
    backward_ito_eval,
    clark_ocone_integrand,
    eval_functional,
    reverse_batch,
    run_experiment,
    sample_paths,
    semimartingale_decomposition_check,
    tail_difference,
    tensor_power,
)


def energy_table(seed: int) -> None:
    res = run_experiment(ExperimentConfig(experiment="theorem1", N=16, depth=4, seed=seed))
    print("two-sided approximation, N=16, integrand X_1 + X_quarter")
    print(f"{'depth':>5} {'energy':>12} {'bound':>12} {'ratio':>8}")
    prev = None
    for depth, vhat, bound in res.rows:
        ratio = "" if prev is None else f"{prev / vhat:8.3f}"
        print(f"{depth:>5} {vhat:12.6f} {bound:12.6f} {ratio:>8}")
        prev = vhat
    if not res.ok:
        for msg in res.failures:
            print(f"  {msg}")


def quadratic_functional(grid: Grid) -> ChaosFunctional:
    one = StepFunction.constant(grid, 1.0)
    return ChaosFunctional(grid, 0.0, {2: tensor_power(one, 2)})


def reversed_table(paths: int, seed: int) -> None:
    t = 0.5
    print(f"reversed representation of X_1^2 - 1 at t={t}, {paths} paths")
    print(f"{'N':>4} {'gap mse':>12} {'resid rms':>12}")
    for N in (8, 16, 32, 64, 128, 256):
        grid = Grid(N)
        batch = sample_paths(grid, paths, seed)
        rev = reverse_batch(batch)
        b = grid.boundary_index(t)
        if N <= 32:
            F = quadratic_functional(grid)
            y = eval_functional(tail_difference(F, b), batch)
            s = backward_ito_eval(clark_ocone_integrand(F), rev, b)
            mse = f"{float(np.mean((y - s) ** 2)):12.6f}"
        else:
            mse = f"{'':>12}"

        q = 2.0 * rev.boundary_values()
        bv = batch.boundary_values()
        exact_y = 2.0 * bv[:, -1] * bv[:, b] - bv[:, b] ** 2 - t
        residual = semimartingale_decomposition_check(q, exact_y, batch, b)
        rms = float(np.sqrt(np.mean(residual**2)))
        print(f"{N:>4} {mse} {rms:12.6f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--paths", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    energy_table(args.seed)
    print()
    reversed_table(args.paths, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
