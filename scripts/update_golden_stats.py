#!/usr/bin/env python
"""Regenerate the golden stats-equivalence snapshots under tests/golden/.

The snapshots pin the exact ``MachineStats`` of every (workload, policy,
fault-spec) case in :data:`repro.experiments.golden.GOLDEN_CASES` and
:data:`~repro.experiments.golden.PAPER_GOLDEN_CASES`; the
test suite replays the cases and demands byte-identical statistics, so
hot-path optimizations cannot silently change what the simulator models.

Only run this when a *semantic* change intentionally moves the numbers
(a modelling fix, a new accounting rule) — never to paper over an
optimization that drifted.  Review the diff of tests/golden/ with the
same care as a code change.

Usage: PYTHONPATH=src python scripts/update_golden_stats.py [case_id ...]
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from unittest import mock

from repro.experiments.golden import GOLDEN_CASES, PAPER_GOLDEN_CASES, run_case
from repro.ioutils import atomic_write
from repro.sim.kernels import KERNEL_ENV

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"


def main(argv: list[str]) -> int:
    only = set(argv)
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    cases = GOLDEN_CASES + PAPER_GOLDEN_CASES
    unknown = only - {c.case_id for c in cases}
    if unknown:
        print(f"unknown case ids: {sorted(unknown)}", file=sys.stderr)
        return 2
    for case in cases:
        if only and case.case_id not in only:
            continue
        t0 = time.perf_counter()
        # The reference interpreter *defines* the snapshots; every other
        # kernel is held to them by the golden test suite.
        with mock.patch.dict(os.environ, {KERNEL_ENV: "reference"}):
            snapshot = run_case(case)
        path = GOLDEN_DIR / f"{case.case_id}.json"
        with atomic_write(path) as fh:
            json.dump(snapshot, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{case.case_id}: {time.perf_counter() - t0:.2f}s -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
