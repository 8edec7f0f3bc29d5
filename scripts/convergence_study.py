"""Print the convergence tables behind the two main approximation claims.

First table: residual increment energy of the two-sided martingale
approximation on dyadic partitions, against its Sobolev-norm bound.  The
energy halves per depth level for the pinned integrand.

Second table: backward discrete-integral gap (mean square) and the
forward-decomposition residual (root mean square) of the reversed
representation of X_1^2 - 1, across grid sizes.  The first scales like
1/N, the second like 1/sqrt(N).  Both are rows of the ``reversal``
experiment, which leaves the gap out above the kernel cell cap.
"""

import argparse
import sys

from skorochaos import ExperimentConfig, run_experiment


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


def reversed_table(paths: int, seed: int) -> None:
    t = 0.5
    print(f"reversed representation of X_1^2 - 1 at t={t}, {paths} paths")
    print(f"{'N':>4} {'gap mse':>12} {'resid rms':>12}")
    for N in (8, 16, 32, 64, 128, 256):
        res = run_experiment(ExperimentConfig(experiment="reversal", N=N, n=1, t=t, paths=paths, seed=seed))
        # the gap row is absent above the kernel cell cap
        stats = {stat: value for _, _, stat, value, _ in res.rows}
        gap = stats.get("backward_ito_gap_mse")
        mse = f"{'':>12}" if gap is None else f"{gap:12.6f}"
        print(f"{N:>4} {mse} {stats['decomposition_residual_rms']:12.6f}")


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
