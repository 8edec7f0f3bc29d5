"""Run every experiment at its acceptance size and write the CSV tables.

Each experiment gets one file in the output directory, named after the
subcommand.  The exit status is nonzero when any run reports a failed
assertion, so this doubles as a slow end-to-end check.
"""

import argparse
import sys
import time
from pathlib import Path

from skorochaos import ExperimentConfig, run_experiment

PINNED = {
    "geometry": dict(M=3, t=0.25, samples=1000),
    "isometry": dict(N=8, L=3, paths=100_000),
    "martingale": dict(N=16),
    "theorem1": dict(N=16, depth=4),
    "ducnualart": dict(N=32),
    "reversal": dict(N=64, n=2, t=0.5, paths=10_000),
    "stopping": dict(N=16, paths=100_000),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results", help="directory for the CSV tables")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    bad = 0
    for name, kw in PINNED.items():
        cfg = ExperimentConfig(experiment=name, seed=args.seed, **kw)
        t0 = time.perf_counter()
        res = run_experiment(cfg)
        elapsed = time.perf_counter() - t0
        dest = out_dir / f"{name}.csv"
        dest.write_text(res.csv_text(), encoding="utf-8")
        status = "pass" if res.ok else "FAIL"
        print(f"{name:<12} {status:<5} {len(res.rows):>3} rows  {elapsed:6.2f}s  -> {dest}")
        for msg in res.failures:
            print(f"  {msg}")
        bad += not res.ok
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
