"""Chaos suite: the service under deterministic fault injection.

Run with ``pytest -m chaos`` (excluded from the default tier-1 run by
``addopts``).  Everything here drives real process-isolated workers through
the failpoint registry and holds the service to the ISSUE's acceptance
bar:

* kill -9 mid-job on **every** golden configuration -> the service
  returns byte-identical stats to an uninjected in-process run;
* a repeatedly-crashing job is quarantined as poison while concurrent
  healthy jobs keep completing;
* drain stays bounded while a worker is wedged mid-job.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro import failpoints
from repro.api import Session
from repro.experiments.golden import GOLDEN_CASES
from repro.service.cache import ResultCache
from repro.service.queue import JobQueue, RunSpec

pytestmark = pytest.mark.chaos

#: golden snapshots run at 1/1024 scale; the service takes scale as a
#: divisor, so this is the same config as GoldenCase.config().
GOLDEN_SERVICE_SCALE = 1024


@pytest.fixture(autouse=True)
def _clean_failpoints():
    failpoints.reset()
    yield
    failpoints.reset()


async def _wait_settled(job, timeout=300.0):
    deadline = time.monotonic() + timeout
    while job.state not in ("done", "failed", "preempted"):
        assert time.monotonic() < deadline, f"job stuck in {job.state!r}"
        await asyncio.sleep(0.01)
    return job


def make_queue(tmp_path, **kw):
    kw.setdefault("workers", 1)
    kw.setdefault("spool_dir", tmp_path / "spool")
    kw.setdefault("cache", ResultCache(tmp_path / "cache"))
    kw.setdefault("backoff", 0.0)
    return JobQueue(**kw)


def submit_and_settle(queue, specs, timeout=300.0):
    async def go():
        await queue.start()
        jobs = [queue.submit(s) for s in specs]
        for job in jobs:
            await _wait_settled(job, timeout=timeout)
        await queue.drain(grace=0.5)
        return jobs

    return asyncio.run(go())


@pytest.mark.parametrize(
    "case", GOLDEN_CASES, ids=[c.case_id for c in GOLDEN_CASES]
)
def test_kill9_mid_job_is_byte_identical_on_every_golden_case(
    case, tmp_path
):
    # Uninjected reference, in this process.
    reference = (
        Session(case.config(), seed=case.seed)
        .run(case.workload, case.policy)
        .stats_dict()
    )

    # Service run with the worker SIGKILLed at the first task boundary
    # >= 8 of the first attempt; checkpoint_every=4 guarantees a resume
    # point below the crash.
    failpoints.configure("worker.crash=*@attempt:1@task_ge:8")
    queue = make_queue(tmp_path, checkpoint_every=4, retries=1)
    spec = RunSpec(
        case.workload,
        case.policy,
        seed=case.seed,
        scale=GOLDEN_SERVICE_SCALE,
        faults=case.fault_spec,
        mesh=case.mesh,
    )
    (job,) = submit_and_settle(queue, [spec])

    assert job.state == "done", job.error
    assert job.worker_deaths == 1
    assert job.attempts == 2
    assert job.resumed_from_task is not None
    assert json.dumps(job.result, sort_keys=True) == json.dumps(
        reference, sort_keys=True
    ), f"{case.case_id}: crash+resume diverged from the uninjected run"


def test_poison_job_quarantined_while_healthy_jobs_complete(tmp_path):
    # Every worker that picks up histo/tdnuca dies; kmeans is untouched.
    failpoints.configure("worker.crash=*@job:histo/tdnuca@task_ge:4")
    reference = Session(
        RunSpec("kmeans", "tdnuca", scale=GOLDEN_SERVICE_SCALE).config()
    ).run("kmeans", "tdnuca").stats_dict()

    queue = make_queue(
        tmp_path, workers=2, retries=5, poison_after=3, checkpoint_every=4
    )

    async def go():
        await queue.start()
        poison = queue.submit(
            RunSpec("histo", "tdnuca", scale=GOLDEN_SERVICE_SCALE)
        )
        healthy = queue.submit(
            RunSpec("kmeans", "tdnuca", scale=GOLDEN_SERVICE_SCALE)
        )
        await _wait_settled(poison)
        await _wait_settled(healthy)
        # The server keeps serving after the quarantine.
        late = queue.submit(
            RunSpec("jacobi", "tdnuca", scale=GOLDEN_SERVICE_SCALE)
        )
        await _wait_settled(late)
        await queue.drain(grace=0.5)
        return poison, healthy, late

    poison, healthy, late = asyncio.run(go())
    assert poison.state == "failed"
    assert poison.error["type"] == "poisoned"
    assert poison.worker_deaths == 3
    assert (queue.spool / "poison").glob("*.json")
    assert healthy.state == "done"
    assert json.dumps(healthy.result, sort_keys=True) == json.dumps(
        reference, sort_keys=True
    )
    assert late.state == "done"
    assert queue.stats()["poisoned"] == 1


def test_drain_is_bounded_while_a_worker_is_wedged(tmp_path):
    # The worker wedges for 60 s at a task boundary and the lease is too
    # generous to save us — drain must still come back within its grace
    # by force-killing the attempt, not join on the hung worker.
    failpoints.configure("worker.hang=*@task_ge:4@param:60")
    queue = make_queue(tmp_path, lease_timeout=300.0, checkpoint_every=4)

    async def go():
        await queue.start()
        job = queue.submit(RunSpec("md5", "tdnuca", scale=2048))
        # Let the worker reach the wedge point.
        deadline = time.monotonic() + 30.0
        while not queue.pool.stats()["busy"]:
            assert time.monotonic() < deadline
            await asyncio.sleep(0.02)
        await asyncio.sleep(0.5)
        t0 = time.monotonic()
        await queue.drain(grace=1.0)
        return job, time.monotonic() - t0

    job, wall = asyncio.run(go())
    assert wall < 15.0, f"drain took {wall:.1f}s against a wedged worker"
    assert job.state in ("preempted", "queued", "failed")
    assert queue.pool.stats()["alive"] == 0, "wedged worker left running"


def test_drain_stall_failpoint_delays_but_completes(tmp_path):
    failpoints.configure("queue.drain.stall=1@param:0.3")
    queue = make_queue(tmp_path)

    async def go():
        await queue.start()
        t0 = time.monotonic()
        await queue.drain(grace=0.5)
        return time.monotonic() - t0

    wall = asyncio.run(go())
    assert 0.3 <= wall < 10.0
