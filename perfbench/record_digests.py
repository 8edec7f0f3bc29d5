"""Record the sha256 of every benchmark experiment's CSV bytes per seed.

    python3 perfbench/record_digests.py FIRST LAST

runs each workload's experiments once for every seed in FIRST..LAST and
merges the digests into ``digests.json`` next to this script.  The table
is recorded once, at the commit that defines the benchmark, and is never
regenerated by a change that claims a gain: ``run.py`` reports how many
experiments still reproduce these bytes as ``experiments.csv_identical``.
Seeds where an experiment reports a failure are printed and not recorded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, configs, run_pass

    first, last = int(argv[0]), int(argv[1])
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    bad = 0
    for seed in range(first, last + 1):
        for workload in WORKLOADS:
            for run in run_pass(configs(workload, seed)):
                if not run.ok:
                    bad += 1
                    print(f"seed {seed} {run.experiment}: FAIL {'; '.join(run.problems)}", flush=True)
                    continue
                table.setdefault(run.experiment, {})[str(seed)] = run.csv_sha256
        print(f"seed {seed} done", flush=True)
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
