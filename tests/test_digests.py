"""CSV bytes of the benchmark workloads, pinned by their recorded digests.

Runs every experiment of every workload in ``perfbench/workloads.py`` at
seed 1, twice in the same process, and compares the sha256 of its CSV
text with the digest recorded in ``perfbench/digests.json``.  Both runs
must pass their own checks and give the same bytes, as the benchmark
requires of every pass: state left behind by one run must not change the
next.  Both files are only read.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from skorochaos import run_experiment

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
