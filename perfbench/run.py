"""skorochaos benchmark: one workload, closed loop, one caller.

    python3 perfbench/run.py --workload mc --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Each experiment of a pass starts when the previous one returns.  The
first pass is a warm-up; timed passes repeat while the next one, taking
as long as the last, still ends within ``--seconds``.

``--trace 0`` reports the end-to-end metrics, measured untraced:

* ``wall_s``: median wall time of one pass over the workload;
* ``setup_s``: median over ``SETUP_PROBES`` fresh interpreters of the time
  from spawn to ``import skorochaos`` done and the first ``ndtri`` call
  returned;
* ``peak_rss_mb``: ``ru_maxrss`` of this process after its warm-up pass,
  i.e. of a fresh process that has run one pass.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.py`` (medians over traced passes) plus
``trace.overhead_s``; the spans of the last traced pass are written to
``perfbench/out/``.

Every pass checks each experiment's own identities and z-bounds
(``ExperimentResult.ok``) and that its CSV bytes repeat on every pass;
the count of experiments whose CSV bytes match ``digests.json``, the
digests recorded when the benchmark was defined, is reported as
``experiments.csv_identical``.  The last stdout line is the result JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 9
# Parallelism comes only from the experiments' own worker threads.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBE = "import skorochaos, time; skorochaos.paths.ndtri(0.5); print(time.monotonic())"


def git_head() -> str:
    """``git rev-parse HEAD`` read from ``.git``, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_seconds() -> list[float]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env, capture_output=True, text=True, check=True
        )
        out.append(float(proc.stdout.split()[-1]) - t0)
    return out


class Checker:
    """Counts attempted and failed experiment runs and checks CSV repeatability."""

    def __init__(self, seed: int, reference: dict[str, dict[str, str]]) -> None:
        self.seed = str(seed)
        self.reference = reference
        self.first: dict[str, str | None] = {}
        self.attempted = 0
        self.failed = 0
        self.unrepeatable = 0

    def check(self, runs) -> None:
        for run in runs:
            self.attempted += 1
            if not run.ok:
                self.failed += 1
                print(f"FAIL {run.experiment}: {'; '.join(run.problems)}", file=sys.stderr)
            first = self.first.setdefault(run.experiment, run.csv_sha256)
            if run.csv_sha256 != first:
                self.unrepeatable += 1
                print(f"FAIL {run.experiment}: CSV bytes differ between passes", file=sys.stderr)

    def csv_counts(self) -> tuple[int, int]:
        """(experiments matching the recorded digest, experiments with a recorded digest)."""
        known = [(e, d) for e, d in self.first.items() if self.seed in self.reference.get(e, {})]
        return sum(self.reference[e][self.seed] == d for e, d in known), len(known)


def pass_wall(runs) -> float:
    return sum(r.wall_s for r in runs)


def end_to_end(cfgs, checker: Checker, seconds: float) -> dict[str, float]:
    from workloads import run_pass

    setup = setup_seconds()
    checker.check(run_pass(cfgs))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = []
    t_end = time.perf_counter() + seconds
    # A pass starts only if it can end by t_end, so a run takes about --seconds.
    while not walls or time.perf_counter() + walls[-1] <= t_end:
        gc.collect()
        runs = run_pass(cfgs)
        checker.check(runs)
        walls.append(pass_wall(runs))
    print(f"# wall_s per pass: {walls}; setup_s per probe: {setup}")
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }


def traced(cfgs, checker: Checker, seconds: float, spans_path: Path) -> dict[str, float]:
    from tracing import Tracer
    from workloads import WORKLOADS, run_pass

    experiments = sorted({name for _, runs in WORKLOADS.values() for name, _ in runs})

    checker.check(run_pass(cfgs))
    untraced, samples = [], []
    t_end = time.perf_counter() + seconds
    while not samples or time.perf_counter() + untraced[-1] + samples[-1]["wall_s"] <= t_end:
        gc.collect()
        runs = run_pass(cfgs)
        checker.check(runs)
        untraced.append(pass_wall(runs))
        tracer = Tracer()
        gc.collect()
        try:
            tracer.install()
            runs = run_pass(cfgs, tracer.span)
        finally:
            tracer.uninstall()
        checker.check(runs)
        samples.append({"wall_s": pass_wall(runs), **tracer.metrics(experiments)})
    tracer.write(spans_path)
    values = {key: statistics.median(s[key] for s in samples) for key in samples[0]}
    values["trace.overhead_s"] = values["wall_s"] - statistics.median(untraced)
    values["experiments.failures"] = checker.failed
    values["experiments.csv_identical"], values["experiments.csv_compared"] = checker.csv_counts()
    print(f"# traced wall_s per pass: {[s['wall_s'] for s in samples]}; untraced: {untraced}")
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "skorochaos" / "__init__.py").is_file():
        print(f"no skorochaos package under {SRC}: run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    predicted = {m for row in json.loads((HERE / "predictions.json").read_text())["layers"] for m in row["metrics"]}
    unpredicted = [m["name"] for m in spec["per_layer"] if m["name"] not in predicted]
    if unpredicted:
        print(f"per-layer metrics without a row in predictions.json: {unpredicted}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS, configs
    import numpy
    import scipy

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    cfgs = configs(args.workload, args.seed)
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_head": git_head(),
        "workers": cfgs[0].workers,
        "workload": args.workload,
        "seed": args.seed,
        **THREAD_ENV,
    }
    print("# env " + json.dumps(env))

    reference = json.loads((HERE / "digests.json").read_text())
    checker = Checker(args.seed, reference)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        OUT.mkdir(exist_ok=True)
        values = traced(cfgs, checker, args.seconds, OUT / f"spans-{args.workload}-{args.seed}.json")
    else:
        values = end_to_end(cfgs, checker, args.seconds)

    identical, compared = checker.csv_counts()
    print(f"# csv bytes: {identical} of {compared} experiments with a recorded digest match it")
    print(f"# failed_ratio: {checker.failed / checker.attempted} ({checker.failed} of {checker.attempted} runs)")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, v in metrics.items():
        print(f"{name} {v['value']} {v['unit']}")
    result = {
        "correct": checker.failed == 0 and checker.unrepeatable == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
