"""Job queue behaviour: retries, breaker, eviction, drain, spool resume.

Everything runs through ``asyncio.run`` inside plain sync tests (the
repo's pytest has no asyncio plugin).  Slow-path behaviours (retry
classification, saturation) monkeypatch the worker attempt so no real
simulation runs; the byte-identity properties (eviction, drain+resume)
use real tiny simulations because that is the property under test.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro.api import Session
from repro.config import scaled_config
from repro.scenario import load_scenario
from repro.service import queue as queue_module
from repro.service.cache import ResultCache, request_key
from repro.service.envelope import ServiceError
from repro.service.queue import (
    CircuitBreaker,
    EventBuffer,
    Job,
    JobQueue,
    scenario_from_body,
    service_form,
)
from repro.snapshot import PreemptedError
from tests.conftest import run_of, sweep_of

SCALE = 2048
CFG = scaled_config(1 / SCALE)


def run_async(coro):
    return asyncio.run(coro)


async def wait_settled(job, timeout=60.0):
    deadline = time.monotonic() + timeout
    while job.state not in ("done", "failed", "preempted"):
        assert time.monotonic() < deadline, f"job stuck in {job.state!r}"
        await asyncio.sleep(0.01)
    return job


def make_queue(tmp_path, **kw):
    kw.setdefault("workers", 1)
    kw.setdefault("spool_dir", tmp_path / "spool")
    kw.setdefault("cache", ResultCache(tmp_path / "cache"))
    return JobQueue(**kw)


def reference_result(workload="md5", policy="tdnuca", seed=0):
    rr = Session(CFG, seed=seed).run(workload, policy)
    return rr.stats_dict()


def job_of(scenario):
    """The job record the queue would admit ``scenario`` as."""
    return Job(id="j", scenario=service_form(scenario))


class TestSpecs:
    def test_run_spec_round_trip(self):
        scenario = scenario_from_body(
            {"name": "t", "workload": "md5", "policy": "tdnuca",
             "machine": {"scale": SCALE}},
            "run",
        )
        job = job_of(scenario)
        assert job.scenario.to_dict()["workload"] == "md5"
        assert job.cells == [("md5", "tdnuca")]
        assert job.label == "md5/tdnuca"
        # the record's scenario is the one serialized form: it parses
        # back to the same job
        again = job_of(scenario_from_body(job.to_dict()["scenario"], "run"))
        assert again.scenario == job.scenario and again.key == job.key

    def test_sweep_spec_cells(self):
        scenario = scenario_from_body(
            {"name": "t", "machine": {"scale": SCALE},
             "sweep": {"workloads": ["md5"], "policies": ["snuca", "tdnuca"]}},
            "sweep",
        )
        job = job_of(scenario)
        assert job.cells == [("md5", "snuca"), ("md5", "tdnuca")]
        assert job.cells_total == 2
        assert job.label == "sweep:1x2"

    # Each scenario goes to the run endpoint.  The explicit ids are the
    # ones these cases had as flat specs.
    @pytest.mark.parametrize("raw, needle", [
        ({"name": "t", "workload": "nope", "policy": "tdnuca"}, "workload"),
        ({"name": "t", "workload": "md5", "policy": "nope"}, "policy"),
        ({"name": "t", "workload": "md5"}, "policy"),
        ({"name": "t", "workload": "md5", "policy": "tdnuca",
          "machine": {"scale": 0}}, "scale"),
        pytest.param(
            {"name": "t", "sweep": {"workloads": [], "policies": ["snuca"]}},
            "non-empty", id="raw4-at least one",
        ),
        pytest.param(
            {"name": "t", "sweep": {"workloads": ["md5"],
                                    "policies": ["snuca"]}},
            "is a sweep but was submitted to the run endpoint",
            id="raw5-kind",
        ),
        pytest.param(["not", "a", "dict"], "expected a mapping",
                     id="not a dict-JSON object"),
    ])
    def test_invalid_specs_rejected_with_named_cause(self, raw, needle):
        with pytest.raises(ValueError, match=needle):
            scenario_from_body(raw, "run")

    def test_bad_fault_spec_rejected_at_submission(self):
        with pytest.raises(ValueError):
            scenario_from_body(
                {"name": "t", "workload": "md5", "policy": "tdnuca",
                 "machine": {"scale": SCALE}, "faults": "utter nonsense"},
                "run",
            )


class TestIdentity:
    """A job's identity is its service-form scenario: what the service
    never reads (name, description, trace, checkpoint) is not part of it."""

    VARIANTS = {
        "named": {"name": "first", "workload": "kmeans", "policy": "tdnuca",
                  "machine": {"scale": 1024}},
        "renamed": {"name": "second", "workload": "kmeans",
                    "policy": "tdnuca", "machine": {"scale": 1024}},
        "described": {"name": "third", "description": "a kmeans run",
                      "workload": "kmeans", "policy": "tdnuca",
                      "machine": {"scale": 1024}},
        "checkpointed": {"name": "fourth", "workload": "kmeans",
                         "policy": "tdnuca", "machine": {"scale": 1024},
                         "checkpoint": {"every": 8}},
    }

    def variants(self):
        out = {name: scenario_from_body(raw, "run")
               for name, raw in self.VARIANTS.items()}
        # the curated traced-kmeans and the same run without its trace
        # block (nor its name and description)
        out["traced-kmeans"] = scenario_from_body("traced-kmeans", "run")
        untraced = dict(load_scenario("traced-kmeans").to_dict())
        for key in ("trace", "description"):
            untraced.pop(key)
        untraced["name"] = "untraced"
        out["untraced"] = scenario_from_body(untraced, "run")
        return out

    def test_one_job_key_for_every_name_description_and_trace(self):
        jobs = {name: job_of(sc) for name, sc in self.variants().items()}
        assert len({job.key for job in jobs.values()}) == 1
        assert len({json.dumps(job.to_dict()["scenario"], sort_keys=True)
                    for job in jobs.values()}) == 1
        assert jobs["named"].scenario.name == "kmeans/tdnuca"

    def test_one_poison_key_for_every_name_description_and_trace(
        self, tmp_path
    ):
        queue = make_queue(tmp_path)
        variants = self.variants()
        key = job_of(variants["named"]).key
        queue.poisoned[key] = "bundle.json"

        async def go():
            await queue.start()
            for scenario in variants.values():
                with pytest.raises(ServiceError) as exc:
                    queue.submit(scenario)
                assert exc.value.type == "poisoned"
                assert key in exc.value.message

        run_async(go())

    def test_other_runs_have_other_keys(self):
        base = job_of(run_of("kmeans", "tdnuca", scale=1024)).key
        for other in (
            run_of("kmeans", "snuca", scale=1024),
            run_of("kmeans", "tdnuca", scale=512),
            run_of("kmeans", "tdnuca", scale=1024, seed=1),
            sweep_of(["kmeans"], ["tdnuca"], scale=1024),
        ):
            assert job_of(other).key != base


class TestEventBuffer:
    def test_cursor_reads_are_incremental(self):
        buf = EventBuffer(capacity=10)
        buf.append({"n": 1})
        buf.append({"n": 2})
        items, cur = buf.since(0)
        assert [i["n"] for i in items] == [1, 2]
        buf.append({"n": 3})
        items, cur = buf.since(cur)
        assert [i["n"] for i in items] == [3]

    def test_overflow_drops_oldest_and_counts(self):
        buf = EventBuffer(capacity=3)
        for n in range(7):
            buf.append({"n": n})
        items, _ = buf.since(0)
        assert [i["n"] for i in items] == [4, 5, 6]
        assert buf.dropped == 4

    def test_wait_returns_at_once_when_behind_or_closed(self):
        buf = EventBuffer()
        buf.append({"n": 1})

        async def go():
            await asyncio.wait_for(buf.wait(0), 1.0)  # event 0 is there
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(buf.wait(1), 0.05)
            buf.close()
            await asyncio.wait_for(buf.wait(1), 1.0)

        run_async(go())

    def test_wait_wakes_on_append_and_close_from_other_threads(self):
        buf = EventBuffer()

        async def go():
            loop = asyncio.get_running_loop()
            woke = []
            for cursor, act in ((0, lambda: buf.append({"n": 0})),
                                (1, buf.close)):
                # The other thread acts 50 ms into the wait; the waiter
                # must wake then, well before its 5 s timeout.
                timer = threading.Timer(0.05, act)
                t0 = loop.time()
                timer.start()
                await asyncio.wait_for(buf.wait(cursor), 5.0)
                woke.append(loop.time() - t0)
                timer.join()
            return woke

        woke = run_async(go())
        assert all(0.04 <= w < 1.0 for w in woke), woke
        assert buf.closed
        assert buf._waiters == []

    def test_cancelled_waiter_is_skipped_by_the_wake_up(self):
        buf = EventBuffer()

        async def go():
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(buf.wait(0), 0.01)
            buf.append({"n": 0})  # resolves nothing, raises nothing
            await asyncio.sleep(0)

        run_async(go())
        assert buf._waiters == []


class TestCircuitBreaker:
    def test_opens_at_depth_and_closes_at_low_water(self):
        br = CircuitBreaker(max_pending=4)
        br.admit(3)
        with pytest.raises(ServiceError) as exc:
            br.admit(4)
        assert exc.value.type == "saturated"
        assert exc.value.retry_after is not None
        assert br.state == "open"
        # Still open above the low-water mark (hysteresis).
        with pytest.raises(ServiceError):
            br.admit(3)
        br.admit(2)  # back at low water: closed again
        assert br.state == "closed"
        assert br.trips == 1
        assert br.shed == 2


class TestRetries:
    def test_transient_failure_retries_then_succeeds(self, tmp_path):
        queue = make_queue(tmp_path, retries=2, backoff=0.0)
        calls = {"n": 0}

        def flaky(job, budget):
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("spurious infrastructure burp")
            job.partial[job.label] = {"makespan_cycles": 1}
            job.cells_done += 1

        queue._attempt = flaky

        async def go():
            await queue.start()
            job = queue.submit(run_of("md5", "tdnuca", scale=SCALE))
            await wait_settled(job)
            return job

        job = run_async(go())
        assert job.state == "done"
        assert job.attempts == 3
        kinds = [e["kind"] for e in job.events.since(0)[0]]
        assert kinds.count("retry") == 2

    def test_permanent_error_fails_immediately_with_typed_envelope(
        self, tmp_path
    ):
        queue = make_queue(tmp_path, retries=5, backoff=0.0)

        def broken(job, budget):
            raise ValueError("workload exploded deterministically")

        queue._attempt = broken

        async def go():
            await queue.start()
            job = queue.submit(run_of("md5", "tdnuca", scale=SCALE))
            await wait_settled(job)
            return job

        job = run_async(go())
        assert job.state == "failed"
        assert job.attempts == 1  # no retry for a permanent error
        assert job.error["type"] == "job-failed"
        assert "workload exploded" in job.error["message"]
        assert job.error["retryable"] is False

    def test_retries_exhausted_fails_typed(self, tmp_path):
        queue = make_queue(tmp_path, retries=1, backoff=0.0)

        def always_down(job, budget):
            raise OSError("disk on fire")

        queue._attempt = always_down

        async def go():
            await queue.start()
            job = queue.submit(run_of("md5", "tdnuca", scale=SCALE))
            await wait_settled(job)
            return job

        job = run_async(go())
        assert job.state == "failed"
        assert job.attempts == 2
        assert job.error["type"] == "job-failed"


class TestSaturation:
    def test_breaker_sheds_when_queue_is_full(self, tmp_path):
        queue = make_queue(tmp_path, max_pending=2)

        def stuck(job, budget):
            time.sleep(1.0)

        queue._attempt = stuck

        async def go():
            await queue.start()
            queue.submit(run_of("md5", "tdnuca", scale=SCALE))
            queue.submit(run_of("md5", "snuca", scale=SCALE))
            with pytest.raises(ServiceError) as exc:
                queue.submit(run_of("md5", "rnuca", scale=SCALE))
            assert exc.value.type == "saturated"
            assert exc.value.status == 503
            assert exc.value.retryable
            assert exc.value.retry_after > 0
            for task in queue._tasks:
                task.cancel()
            queue._pool.shutdown(wait=False)

        run_async(go())
        assert queue.stats()["breaker"]["trips"] == 1


class TestCacheIntegration:
    def test_duplicate_submission_is_answered_from_cache(self, tmp_path):
        queue = make_queue(tmp_path)

        async def go():
            await queue.start()
            first = queue.submit(run_of("md5", "tdnuca", scale=SCALE))
            await wait_settled(first)
            second = queue.submit(run_of("md5", "tdnuca", scale=SCALE))
            return first, second

        first, second = run_async(go())
        assert first.state == "done"
        assert first.simulated == 1 and first.cache_hits == 0
        # The duplicate settles synchronously inside submit().
        assert second.state == "done"
        assert second.simulated == 0 and second.cache_hits == 1
        assert second.cache_hit
        assert queue.simulations_run == 1
        assert second.result == first.result

    def test_hits_share_the_cold_jobs_result_dict(self, tmp_path):
        """The job that simulated a cell seeds the dict its cache hits
        share: no hit decodes a copy of its own."""
        queue = make_queue(tmp_path)

        async def go():
            await queue.start()
            cold = queue.submit(run_of("md5", "tdnuca", scale=SCALE))
            await wait_settled(cold)
            hits = [queue.submit(run_of("md5", "tdnuca", scale=SCALE))
                    for _ in range(3)]
            return cold, hits

        cold, hits = run_async(go())
        assert cold.simulated == 1
        assert all(hit.cache_hit for hit in hits)
        assert all(hit.result is cold.result for hit in hits)
        # every hit still read (and CRC-checked) the cache entry
        assert queue.cache.hits >= 3

    def test_cached_result_is_byte_identical_to_plain_run(self, tmp_path):
        queue = make_queue(tmp_path)

        async def go():
            await queue.start()
            job = queue.submit(run_of("md5", "tdnuca", scale=SCALE))
            await wait_settled(job)
            return job

        job = run_async(go())
        assert json.dumps(job.result, sort_keys=True) == json.dumps(
            reference_result(), sort_keys=True
        )

    def test_corrupt_cache_entry_recomputes(self, tmp_path):
        queue = make_queue(tmp_path)
        key = request_key(CFG, "md5", "tdnuca", 0)

        async def go(expect_hit):
            await queue.start()
            job = queue.submit(run_of("md5", "tdnuca", scale=SCALE))
            await wait_settled(job)
            assert job.state == "done"
            assert (job.cache_hits == 1) is expect_hit
            return job

        run_async(go(False))
        path = queue.cache.path_for(key)
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0x10
        path.write_bytes(bytes(raw))
        with pytest.warns(UserWarning, match="corrupt cache entry"):
            job = run_async(go(False))
        assert job.simulated == 1
        assert queue.cache.corrupt == 1
        assert path.with_name(path.name + ".corrupt").exists()
        assert json.dumps(job.result, sort_keys=True) == json.dumps(
            reference_result(), sort_keys=True
        )

    def test_sweep_job_caches_per_cell(self, tmp_path):
        queue = make_queue(tmp_path)

        async def go():
            await queue.start()
            one = queue.submit(run_of("md5", "tdnuca", scale=SCALE))
            await wait_settled(one)
            sweep = queue.submit(
                sweep_of(["md5"], ["snuca", "tdnuca"], scale=SCALE)
            )
            await wait_settled(sweep)
            return sweep

        sweep = run_async(go())
        assert sweep.state == "done"
        assert sweep.cache_hits == 1  # the tdnuca cell came from the run
        assert sweep.simulated == 1  # only snuca was simulated
        assert set(sweep.result["runs"]) == {"md5/snuca", "md5/tdnuca"}
        assert sweep.result["schema_version"] >= 4


class TestEvictionAndDrain:
    def test_eviction_requeues_and_result_stays_byte_identical(self, tmp_path):
        # 0.5s slices: every eviction costs a relaunch (milliseconds for
        # an attempt forked from the template, ~0.4s of interpreter start
        # and import for a spawned one), so much shorter slices would
        # spend the test relaunching instead of progressing.
        queue = make_queue(tmp_path, evict_after=0.5)

        async def go():
            await queue.start()
            job = queue.submit(run_of("lu", "tdnuca", scale=512))
            await wait_settled(job, timeout=120)
            return job

        job = run_async(go())
        assert job.state == "done"
        assert job.evictions >= 1
        assert job.resumed_from_task is not None
        rr = Session(scaled_config(1 / 512)).run("lu", "tdnuca")
        assert json.dumps(job.result, sort_keys=True) == json.dumps(
            rr.stats_dict(), sort_keys=True
        )
        # The spool snapshot is consumed on success.
        assert not list(queue.spool.glob("*.snap"))

    def test_drain_preempts_to_snapshot_and_resume_matches(self, tmp_path):
        spool = tmp_path / "spool"
        cache_dir = tmp_path / "cache"

        async def interrupted():
            queue = make_queue(
                tmp_path, spool_dir=spool, cache=ResultCache(cache_dir),
                checkpoint_every=25,
            )
            await queue.start()
            job = queue.submit(run_of("lu", "tdnuca", scale=512))
            await asyncio.sleep(0.3)
            stopped = await queue.drain(grace=30.0)
            return queue, job, stopped

        queue, job, stopped = run_async(interrupted())
        assert stopped == 1
        assert job.state == "preempted"
        assert queue.draining
        snaps = list(spool.glob("*.snap"))
        assert len(snaps) == 1
        with pytest.raises(ServiceError) as exc:
            queue.submit(run_of("md5", "tdnuca", scale=SCALE))
        assert exc.value.type == "draining"

        async def resumed():
            queue2 = make_queue(
                tmp_path, spool_dir=spool, cache=ResultCache(cache_dir)
            )
            await queue2.start()
            job2 = queue2.submit(run_of("lu", "tdnuca", scale=512))
            await wait_settled(job2, timeout=120)
            return job2

        job2 = run_async(resumed())
        assert job2.state == "done"
        assert job2.resumed_from_task is not None
        rr = Session(scaled_config(1 / 512)).run("lu", "tdnuca")
        assert json.dumps(job2.result, sort_keys=True) == json.dumps(
            rr.stats_dict(), sort_keys=True
        )


class TestTimeout:
    def test_budget_exhaustion_fails_typed_but_keeps_snapshot(self, tmp_path):
        queue = make_queue(tmp_path, timeout=0.1, retries=0)

        async def go():
            await queue.start()
            job = queue.submit(run_of("lu", "tdnuca", scale=512))
            await wait_settled(job, timeout=120)
            return job

        job = run_async(go())
        assert job.state == "failed"
        assert job.error["type"] == "timeout"
        assert job.error["retryable"] is True
        assert "resume" in job.error["message"]
        # The snapshot survives so a resubmission resumes, not restarts.
        assert list(queue.spool.glob("*.snap"))


class TestJobTable:
    def test_running_count_matches_a_full_scan_at_every_step(self, tmp_path):
        """``depth()`` is a count kept at state changes; after hits, cold
        runs, a failure, a retry, an eviction and a drain it still equals
        a scan of every job ever submitted."""
        queue = make_queue(tmp_path, retries=1, backoff=0.0)
        attempts: dict[str, int] = {}
        hold = threading.Event()

        def attempt(job, budget):
            scenario = job.scenario
            n = attempts[job.label] = attempts.get(job.label, 0) + 1
            if scenario.workload == "knn":  # held until the drain
                hold.wait(10.0)
            if scenario.policy == "rnuca":
                raise ValueError("deterministic failure")
            if scenario.policy == "snuca" and n == 1:
                raise RuntimeError("transient failure")
            if scenario.policy == "dnuca" and n == 1:
                raise PreemptedError(tmp_path / "evicted.snap", 3)
            result = {"makespan_cycles": n}
            queue.cache.put(
                request_key(scenario.to_config(), scenario.workload,
                            scenario.policy, scenario.seed),
                result,
            )
            job.partial[job.label] = result
            job.cells_done += 1
            job.simulated += 1

        queue._attempt = attempt
        live = ("queued", "running")

        def check(expected):
            scan = sum(1 for j in queue.jobs.values() if j.state in live)
            assert queue.depth() == scan == expected
            assert queue.stats()["depth"] == expected

        async def go():
            await queue.start()
            check(0)
            cold = queue.submit(run_of("md5", "tdnuca", scale=SCALE))
            check(1)
            await wait_settled(cold)
            check(0)
            for _ in range(3):  # cache hits settle inside submit
                assert queue.submit(
                    run_of("md5", "tdnuca", scale=SCALE)
                ).state == "done"
                check(0)
            jobs = [queue.submit(run_of("md5", policy, scale=SCALE))
                    for policy in ("rnuca", "snuca", "dnuca")]
            check(3)
            for job in jobs:
                await wait_settled(job)
            check(0)
            assert [j.state for j in jobs] == ["failed", "done", "done"]
            assert jobs[1].attempts == 2 and jobs[2].evictions == 1
            held = [queue.submit(run_of("knn", policy, scale=SCALE))
                    for policy in ("tdnuca", "snuca")]
            while held[0].state != "running":
                await asyncio.sleep(0.01)
            check(2)
            assert await queue.drain(grace=0.2) == 2
            check(0)
            return held

        try:
            held = run_async(go())
        finally:
            hold.set()
        assert [j.state for j in held] == ["preempted", "preempted"]
        assert all(j.events.closed for j in queue.jobs.values())

    def test_finished_records_and_shared_results_stay_within_the_cap(
        self, tmp_path, monkeypatch
    ):
        """Thousands of cache hits leave at most ``KEEP_FINISHED`` finished
        records and shared results; a retired id is a typed not-found
        that names the retention."""
        monkeypatch.setattr(queue_module, "KEEP_FINISHED", 40)
        queue = make_queue(tmp_path)
        specs = [run_of("md5", "tdnuca", scale=SCALE, seed=s)
                 for s in range(100)]
        for spec in specs:
            key = request_key(spec.to_config(), "md5", "tdnuca", spec.seed)
            queue.cache.put(key, {"seed": spec.seed})

        async def go():
            await queue.start()
            return [queue.submit(spec) for _ in range(20) for spec in specs]

        jobs = run_async(go())
        assert len(jobs) == 2000
        assert all(job.state == "done" for job in jobs)
        assert list(queue.jobs) == [job.id for job in jobs[-40:]]
        assert len(queue._hit_results) == 40
        assert queue.get(jobs[-1].id).result == {"seed": 99}
        with pytest.raises(ServiceError) as exc:
            queue.get(jobs[0].id)
        assert exc.value.type == "not-found"
        assert "last 40 finished jobs" in exc.value.message
        assert queue.stats()["submitted"] == 2000

    def test_a_shared_result_lives_only_while_a_record_holds_it(
        self, tmp_path, monkeypatch
    ):
        """Keys with one cold run and several hits each: once the records
        of a key retire, its shared result goes with them."""
        monkeypatch.setattr(queue_module, "KEEP_FINISHED", 40)
        queue = make_queue(tmp_path)

        def attempt(job, budget):
            scenario = job.scenario
            result = {"seed": scenario.seed}
            queue.cache.put(
                request_key(scenario.to_config(), scenario.workload,
                            scenario.policy, scenario.seed),
                result,
            )
            job.partial[job.label] = result
            job.cells_done += 1

        queue._attempt = attempt

        def unheld():
            held = {id(r) for j in queue.jobs.values() for r in j.partial.values()}
            return [key for key, result in queue._hit_results.items()
                    if id(result) not in held]

        async def go():
            await queue.start()
            for seed in range(60):
                spec = run_of("md5", "tdnuca", scale=SCALE, seed=seed)
                await wait_settled(queue.submit(spec))
                assert unheld() == []
                for _ in range(5):
                    assert queue.submit(spec).state == "done"
                    assert unheld() == []
            await queue.drain(grace=0.5)

        run_async(go())
        assert len(queue.jobs) == 40
        assert len(queue._hit_results) <= 7
