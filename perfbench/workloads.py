"""The benchmark's workloads and one closed-loop pass over a workload.

A workload is a fixed list of experiment runs.  Sizes follow the pinned
sizes of ``scripts/run_all_experiments.py`` or the ROADMAP baseline; the
seed is the only input that varies, and the experiments receive it only
through ``ExperimentConfig.seed``.  Why each workload exists is the
``why`` of its entry in ``BENCHMARK.json``.

Importing this module imports ``skorochaos``, so the caller puts the
checkout's ``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass

from skorochaos import ExperimentConfig, run_experiment

# name -> (worker count, experiment runs in pass order)
WORKLOADS: dict[str, tuple[int, tuple[tuple[str, dict], ...]]] = {
    "mc": (
        1,
        (
            ("isometry", dict(N=8, L=3, paths=100_000)),
            ("stopping", dict(N=16, paths=100_000)),
        ),
    ),
    "algebra": (
        1,
        (
            ("reversal", dict(N=64, n=2, t=0.5, paths=10_000)),
            ("martingale", dict(N=32)),
            ("ducnualart", dict(N=32)),
            ("theorem1", dict(N=32, depth=5)),
        ),
    ),
}


@dataclass(frozen=True)
class Run:
    """One experiment run inside a pass."""

    experiment: str
    wall_s: float
    ok: bool
    csv_sha256: str | None  # None when the experiment raised
    problems: tuple[str, ...]


def configs(workload: str, seed: int) -> list[ExperimentConfig]:
    workers, runs = WORKLOADS[workload]
    return [ExperimentConfig(experiment=name, seed=seed, workers=workers, **kw) for name, kw in runs]


def _untraced(name: str) -> nullcontext:
    return nullcontext()


def run_pass(cfgs: list[ExperimentConfig], span=_untraced) -> list[Run]:
    """Run the experiments back to back, each starting when the last returns.

    An experiment's wall time covers ``run_experiment`` and rendering its
    CSV table, as the command line does.  ``span(name)`` is a context
    manager wrapped around the same interval, so a tracer can attribute it.
    """
    out = []
    for cfg in cfgs:
        t0 = time.perf_counter()
        try:
            with span(f"experiments.{cfg.experiment}"):
                res = run_experiment(cfg)
                csv = res.csv_text().encode("utf-8")
        except Exception as exc:  # a raising experiment is a failed run, not a crash
            out.append(Run(cfg.experiment, time.perf_counter() - t0, False, None, (repr(exc),)))
            continue
        wall = time.perf_counter() - t0
        out.append(Run(cfg.experiment, wall, res.ok, hashlib.sha256(csv).hexdigest(), tuple(res.failures)))
    return out
