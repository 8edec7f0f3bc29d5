"""Check that the benchmark experiments still print their recorded CSV bytes.

    python3 scripts/check_digests.py FIRST LAST

runs every workload of ``perfbench/workloads.py`` once for each seed in
FIRST..LAST, as ``perfbench/record_digests.py`` does, and compares the
sha256 of each experiment's CSV text with ``perfbench/digests.json``.
Both files are only read; nothing is written.  A seed and experiment with
no recorded digest (the recorder skips a run that fails its own checks)
is run but not compared.  Each mismatch and each failing run is printed.
The exit status is 1 when some recorded digest differs or some run with a
recorded digest fails its checks (it passed them when it was recorded),
0 otherwise.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
DIGESTS = PERFBENCH / "digests.json"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    workloads = _workloads()
    first, last = int(argv[0]), int(argv[1])
    recorded = json.loads(DIGESTS.read_text())
    compared = differ = failed = 0
    for seed in range(first, last + 1):
        for workload in workloads.WORKLOADS:
            for run in workloads.run_pass(workloads.configs(workload, seed)):
                if not run.ok:
                    print(f"seed {seed} {run.experiment}: FAIL {'; '.join(run.problems)}", flush=True)
                want = recorded.get(run.experiment, {}).get(str(seed))
                if want is None:
                    continue
                compared += 1
                failed += not run.ok
                if run.csv_sha256 != want:
                    differ += 1
                    print(f"seed {seed} {run.experiment}: sha256 {run.csv_sha256} differs from {want}", flush=True)
    print(f"{compared - differ} of {compared} recorded digests unchanged; {failed} recorded runs failed")
    return 1 if differ or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
