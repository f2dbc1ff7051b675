"""Chaos suite: the sweep harness under deterministic fault injection.

The sweep twin of ``test_chaos.py``'s kill -9 case.  Sweep attempts run
on the same child entry as service attempts, so the ``worker.*``
failpoints fire at their task boundaries too: a forked sweep worker is
SIGKILLed mid-job on **every** golden configuration, and the retry must
continue from the job's last periodic snapshot to the committed golden
statistics.  Run with ``pytest -m chaos``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import failpoints
from repro.experiments.golden import GOLDEN_CASES, canonical_stats
from repro.experiments.harness import Job, run_sweep
from tests.accounting import check_accounting

pytestmark = pytest.mark.chaos

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"


@pytest.fixture(autouse=True)
def _clean_failpoints():
    failpoints.reset()
    yield
    failpoints.reset()


@pytest.mark.parametrize(
    "case", GOLDEN_CASES, ids=[c.case_id for c in GOLDEN_CASES]
)
def test_sweep_kill9_mid_job_resumes_to_the_golden_on_every_case(
    case, tmp_path
):
    # The worker is SIGKILLed at the first task boundary >= 8 of its
    # first attempt; checkpoint_every=4 guarantees a snapshot below it.
    failpoints.configure("worker.crash=*@attempt:1@task_ge:8")
    events = []
    outcome = run_sweep(
        [Job(case.workload, case.policy, case.seed)], case.config(),
        run_dir=tmp_path / "run", workers=2, checkpoint_every=4, retries=1,
        on_event=lambda kind, job, detail: events.append((kind, detail)),
    )

    assert not outcome.failures, outcome.failures
    [run] = outcome.completed
    assert run.attempts == 2
    assert ("retry", "attempt 1: WorkerCrash") in events
    assert run.result.extra.get("resumed_from_task") is not None
    stats = canonical_stats(run.result)
    golden = json.loads((GOLDEN_DIR / f"{case.case_id}.json").read_text())
    assert stats == golden, (
        f"{case.case_id}: crash+resume diverged from the golden snapshot"
    )
    check_accounting(stats)
