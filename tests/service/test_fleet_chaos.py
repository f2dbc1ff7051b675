"""Fleet chaos suite: multi-host handoff, ghosts, torn shared publishes.

Run with ``pytest -m chaos``.  Two :class:`JobQueue` instances (one
fleet-joined host each) share one fleet directory inside a single event
loop — a miniature fleet without subprocesses, so each scenario stays
deterministic and fast.  The real multi-process story (``kill -9`` of a
serving host, lease-skew fencing of a live-but-stalled owner) is
``scripts/fleet_smoke.py``'s job.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro import failpoints
from repro.api import Session
from repro.config import scaled_config
from repro.service.cache import ResultCache, request_key
from repro.service.fleet import FleetNode, job_key
from repro.service.queue import JobQueue, service_form
from tests.conftest import run_of

pytestmark = pytest.mark.chaos

SCALE = 2048


@pytest.fixture(autouse=True)
def _clean_failpoints():
    failpoints.reset()
    yield
    failpoints.reset()


@pytest.fixture(scope="module")
def reference():
    return (
        Session(scaled_config(1 / SCALE), seed=0)
        .run("md5", "tdnuca")
        .stats_dict()
    )


def fleet_queue(tmp_path, host, *, lease_timeout=0.4, **kw):
    fleet = FleetNode(
        tmp_path / "fleet", host_id=host, lease_timeout=lease_timeout
    )
    cache = ResultCache(
        tmp_path / f"cache-{host}", fleet_dir=fleet.results_dir
    )
    kw.setdefault("workers", 1)
    kw.setdefault("backoff", 0.0)
    return JobQueue(
        spool_dir=tmp_path / "fleet" / "spool",
        cache=cache,
        fleet=fleet,
        **kw,
    )


async def _wait(predicate, what, timeout=120.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        await asyncio.sleep(0.02)


async def _settled(job, timeout=120.0):
    await _wait(
        lambda: job.state in ("done", "failed", "preempted"),
        f"job {job.id} to settle",
        timeout,
    )
    return job


def _same(a, b):
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_duplicate_submit_to_a_peer_is_a_shared_store_hit(
    tmp_path, reference
):
    async def go():
        q1 = fleet_queue(tmp_path, "h1")
        q2 = fleet_queue(tmp_path, "h2")
        await q1.start()
        await q2.start()
        try:
            j1 = q1.submit(run_of("md5", "tdnuca", scale=SCALE))
            await _settled(j1)
            j2 = q2.submit(run_of("md5", "tdnuca", scale=SCALE))
            await _settled(j2)
            return j1, j2, q1, q2
        finally:
            await q1.drain(grace=2.0)
            await q2.drain(grace=2.0)

    j1, j2, q1, q2 = asyncio.run(go())
    assert j1.state == "done" and j1.simulated == 1
    assert _same(j1.result, reference)
    # The peer never simulates: the shared tier answers.
    assert j2.state == "done", j2.error
    assert j2.simulated == 0 and j2.cache_hits == 1
    assert _same(j2.result, j1.result)
    assert q2.simulations_run == 0
    assert q2.cache.fleet_hits >= 1
    # the publish itself happened in h1's worker child; the shared tier
    # holds exactly the one entry it linked in
    assert q1.cache.stats()["fleet_entries"] == 1


def test_drained_hosts_job_is_stolen_and_finished_by_a_peer(
    tmp_path, reference
):
    # Hold every attempt at its start so the first host is mid-attempt
    # when it drains; the peer must then steal the requeued entry.
    failpoints.configure("queue.attempt.slow=*@param:1.0")

    async def go():
        q1 = fleet_queue(tmp_path, "h1", lease_timeout=0.2)
        q2 = fleet_queue(tmp_path, "h2", lease_timeout=0.2)
        await q1.start()
        await q2.start()
        try:
            job = q1.submit(run_of("md5", "tdnuca", scale=SCALE))
            await _wait(
                lambda: job.fleet_claim is not None,
                "h1 to claim its job",
                timeout=10.0,
            )
            await q1.drain(grace=0.3)  # preempts the held attempt
            assert job.state == "preempted", job.state
            # h1 is gone; its released claim + requeued entry flow to h2.
            await _wait(
                lambda: any(
                    j.origin == "steal" and j.state == "done"
                    for j in q2.jobs.values()
                ),
                "h2 to steal and finish the ghost",
            )
            return job, q2
        finally:
            await q2.drain(grace=2.0)

    _, q2 = asyncio.run(go())
    ghost = next(j for j in q2.jobs.values() if j.origin == "steal")
    assert q2.adopted == 1
    assert q2.fleet.steals == 1
    assert _same(ghost.result, reference)
    # The settled claim is gone; the shared store answers the key.
    key = job_key(service_form(run_of("md5", "tdnuca", scale=SCALE)).to_dict())
    assert not (q2.fleet.claim_path(key)).is_file()
    assert q2.cache.fleet_path_for(
        request_key(scaled_config(1 / SCALE), "md5", "tdnuca", 0)
    ).is_file()


def test_dead_hosts_claim_is_reclaimed_and_run_as_ghost(
    tmp_path, reference
):
    scenario = service_form(run_of("md5", "tdnuca", scale=SCALE))
    key = job_key(scenario.to_dict())
    # A host that claimed the job and then went silent forever — the
    # in-process stand-in for kill -9 (the smoke does it for real).
    dead = FleetNode(tmp_path / "fleet", host_id="dead", lease_timeout=0.2)
    dead.register()
    assert dead.try_claim(key, scenario.to_dict()) is not None

    async def go():
        q2 = fleet_queue(tmp_path, "h2", lease_timeout=0.2)
        await q2.start()
        try:
            await _wait(
                lambda: any(
                    j.origin == "reclaim" and j.state == "done"
                    for j in q2.jobs.values()
                ),
                "h2 to reclaim the dead host's claim",
            )
            return q2
        finally:
            await q2.drain(grace=2.0)

    q2 = asyncio.run(go())
    ghost = next(j for j in q2.jobs.values() if j.origin == "reclaim")
    assert q2.fleet.reclaims == 1 and q2.adopted == 1
    assert _same(ghost.result, reference)
    assert ghost.fleet_claim is None  # released on settle
    assert not q2.fleet.claim_path(key).is_file()


def test_torn_shared_publish_is_quarantined_fleet_wide_and_republished(
    tmp_path,
):
    fleet_results = tmp_path / "fleet" / "results"
    cfg = scaled_config(1 / SCALE)
    key = request_key(cfg, "md5", "tdnuca", 0)
    result = {"workload": "md5", "makespan_cycles": 42}

    failpoints.configure("fleet.publish.torn=1")
    c1 = ResultCache(tmp_path / "c1", fleet_dir=fleet_results)
    c1.put(key, result, meta={})
    failpoints.reset()
    # c1's local tier is clean; the shared entry is torn.
    assert c1.get(key) == result

    c2 = ResultCache(tmp_path / "c2", fleet_dir=fleet_results)
    with pytest.warns(UserWarning, match="corrupt fleet cache entry"):
        assert c2.get(key) is None  # quarantined, reported as a miss
    assert c2.fleet_corrupt == 1
    assert list(fleet_results.glob("*.corrupt")), (
        "torn shared entry must be kept for forensics"
    )
    # The publisher slot reopened: the recompute republishes clean bytes
    # that every other host can now read.
    c2.put(key, result, meta={})
    assert c2.fleet_stores == 1
    c3 = ResultCache(tmp_path / "c3", fleet_dir=fleet_results)
    assert c3.get(key) == result
    assert c3.fleet_hits == 1
