"""Record golden.json: the expected exit code, output digest and per-stage
digests of every call of every workload at the default seed.

Run from the root of a checkout, only when a change is meant to alter
report bytes or exit codes, and say why in that change:

  python3 bench/record_golden.py
"""

from __future__ import annotations

import json
import sys
import time

import workloads
from run import GOLDEN, TIME_LIMIT_S, spawn


def main() -> int:
    golden = {}
    for workload in workloads.WORKLOADS:
        rep = spawn(workload, workloads.DEFAULT_SEED, False,
                    time.monotonic() + TIME_LIMIT_S)
        golden[workload] = {
            rec["name"]: {"exit": rec["exit"], "sha256": rec["sha256"],
                          "stages": rec["stages"]}
            for rec in rep["records"] if rec["pass"] == 0}
        print(workload, {name: g["exit"]
                         for name, g in golden[workload].items()})
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
