"""CSV bytes of the benchmark workloads, pinned by their recorded digests.

Runs every experiment of every workload in ``perfbench/workloads.py`` at
seed 1, twice in the same process, and compares the sha256 of its CSV
text with the digest recorded in ``perfbench/digests.json``.  Both runs
must pass their own checks and give the same bytes, as the benchmark
requires of every pass: state left behind by one run must not change the
next.  Both files are only read.

The exact experiments at N=64, ``reversal`` at N=64 with n=3, and
``geometry``, which no workload runs, are pinned here by their sha256 at
seed 1 and the default config otherwise.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from skorochaos import ExperimentConfig, run_experiment

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())
CONFIGS = [cfg for name in WORKLOADS.WORKLOADS for cfg in WORKLOADS.configs(name, SEED)]


@pytest.mark.parametrize("cfg", CONFIGS, ids=[cfg.experiment for cfg in CONFIGS])
def test_csv_bytes_match_recorded_digest(cfg):
    texts = []
    for _ in range(2):
        res = run_experiment(cfg)
        assert res.ok, res.failures
        texts.append(res.csv_text())
    assert texts[1] == texts[0], "CSV bytes differ between two runs in one process"
    digest = hashlib.sha256(texts[0].encode("utf-8")).hexdigest()
    assert digest == DIGESTS[cfg.experiment][str(SEED)]


PINNED = [
    (dict(experiment="martingale", N=64), "e8b44fb54370ce8dadfe93f142bbf559a700976041cc650f37557654c817469c"),
    (dict(experiment="theorem1", N=64, depth=4), "54735cccbfd5e404d0d361546ce8f8a6b14b541c3f760fcdcef14f741aa74bf1"),
    (dict(experiment="ducnualart", N=64), "c401e37349cb4a57c10e6f422ea613f2e8a385bf736b18138299a5de0404dfaa"),
    # the workloads run reversal at n=2 only; n=3 covers its order-3 panel
    (
        dict(experiment="reversal", N=64, n=3, t=0.5, paths=10_000),
        "ef4704d2dc069f8fa4d748383ae1d544caf6e216d2d8403fa20c53fce0010c1d",
    ),
    (
        dict(experiment="geometry", M=3, t=0.25, samples=1000),
        "a4584510d3d941e292a9be6c01c43e605444a1942be3cd9db09810223b1753f8",
    ),
]


@pytest.mark.parametrize("kw, digest", PINNED, ids=[kw["experiment"] for kw, _ in PINNED])
def test_csv_bytes_match_pinned_digest(kw, digest):
    res = run_experiment(ExperimentConfig(seed=SEED, **kw))
    assert res.ok, res.failures
    assert hashlib.sha256(res.csv_text().encode("utf-8")).hexdigest() == digest


def test_interpreter_sums_floats_left_to_right():
    # CPython 3.12 made builtin sum() of floats compensated; SymKernel.inner and
    # max_increment_energy feed CSV values through sum() (SymKernel.norm_sq sums
    # with a sequential np.cumsum, which no interpreter changes)
    assert sum([1e16, 1.0, -1e16]) == 0.0, (
        "builtin sum() of floats is compensated on this interpreter (CPython >= 3.12), so CSV values "
        "can differ in their last digits from the bytes pinned in perfbench/digests.json, recorded on CPython < 3.12"
    )
