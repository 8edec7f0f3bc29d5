"""CSV bytes of the benchmark workloads, pinned by their recorded digests.

Runs every experiment of every workload in ``perfbench/workloads.py`` at
seed 1 and compares the sha256 of its CSV text with the digest recorded
in ``perfbench/digests.json``.  Both files are only read.
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
    res = run_experiment(cfg)
    assert res.ok, res.failures
    digest = hashlib.sha256(res.csv_text().encode("utf-8")).hexdigest()
    assert digest == DIGESTS[cfg.experiment][str(SEED)]
