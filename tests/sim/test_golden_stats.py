"""Golden stats-equivalence suite.

Replays every case in :data:`repro.experiments.golden.GOLDEN_CASES` and
:data:`~repro.experiments.golden.PAPER_GOLDEN_CASES` and compares the full canonical ``MachineStats`` snapshot against the
committed JSON under tests/golden/.  Equality is *exact* — hot-path
optimizations (batched counters, allocation-free probes, precomputed
geometry) must be statistically invisible down to the last counter and
derived float.

Every case runs under *each* simulation kernel (selected through
``REPRO_KERNEL``) against the same snapshot: the suite doubles as the
cross-kernel equivalence gate (the vector backend's fused engine must
produce byte-identical MachineStats, DESIGN.md §13).  Every leg also
checks the accounting identities of :mod:`tests.accounting`.

Regenerate snapshots only for intentional modelling changes:
``PYTHONPATH=src python scripts/update_golden_stats.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.golden import GOLDEN_CASES, PAPER_GOLDEN_CASES, run_case
from repro.sim.kernels import KERNEL_ENV
from tests.accounting import check_accounting

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

KERNELS = ("reference", "vector")
CASES = GOLDEN_CASES + PAPER_GOLDEN_CASES


def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    else:
        out[prefix] = value


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("case", CASES, ids=[c.case_id for c in CASES])
def test_stats_match_golden_snapshot(case, kernel, monkeypatch):
    monkeypatch.setenv(KERNEL_ENV, kernel)
    path = GOLDEN_DIR / f"{case.case_id}.json"
    assert path.exists(), (
        f"missing golden snapshot {path}; run "
        "'PYTHONPATH=src python scripts/update_golden_stats.py'"
    )
    expected = json.loads(path.read_text())
    actual = run_case(case)

    flat_expected: dict = {}
    flat_actual: dict = {}
    _flatten("", expected, flat_expected)
    _flatten("", actual, flat_actual)
    diffs = sorted(
        f"{key}: golden={flat_expected.get(key)!r} actual={flat_actual.get(key)!r}"
        for key in set(flat_expected) | set(flat_actual)
        if flat_expected.get(key) != flat_actual.get(key)
    )
    assert not diffs, (
        f"{case.case_id} [{kernel}]: {len(diffs)} statistic(s) drifted from "
        "the golden snapshot:\n  " + "\n  ".join(diffs)
    )
    check_accounting(actual)
