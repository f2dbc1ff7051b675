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
import time

import pytest

from repro.api import Session
from repro.config import scaled_config
from repro.service.cache import ResultCache, request_key
from repro.service.envelope import ServiceError
from repro.service.queue import (
    CircuitBreaker,
    EventBuffer,
    JobQueue,
    RunSpec,
    SweepSpec,
    spec_from_dict,
)

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


class TestSpecs:
    def test_run_spec_round_trip(self):
        spec = spec_from_dict(
            {"kind": "run", "workload": "md5", "policy": "tdnuca",
             "scale": SCALE}
        )
        assert isinstance(spec, RunSpec)
        assert spec.to_dict()["workload"] == "md5"
        assert spec.cells() == [("md5", "tdnuca")]

    def test_sweep_spec_cells(self):
        spec = spec_from_dict(
            {"kind": "sweep", "workloads": ["md5"],
             "policies": ["snuca", "tdnuca"], "scale": SCALE}
        )
        assert isinstance(spec, SweepSpec)
        assert spec.cells() == [("md5", "snuca"), ("md5", "tdnuca")]

    @pytest.mark.parametrize("raw, needle", [
        ({"kind": "run", "workload": "nope", "policy": "tdnuca"}, "workload"),
        ({"kind": "run", "workload": "md5", "policy": "nope"}, "policy"),
        ({"kind": "run", "workload": "md5"}, "policy"),
        ({"kind": "run", "workload": "md5", "policy": "tdnuca",
          "scale": 0}, "scale"),
        ({"kind": "sweep", "workloads": [], "policies": ["snuca"]},
         "at least one"),
        ({"kind": "teapot"}, "kind"),
        ("not a dict", "JSON object"),
    ])
    def test_invalid_specs_rejected_with_named_cause(self, raw, needle):
        with pytest.raises(ValueError, match=needle):
            spec_from_dict(raw)

    def test_bad_fault_spec_rejected_at_submission(self):
        with pytest.raises(ValueError):
            spec_from_dict(
                {"kind": "run", "workload": "md5", "policy": "tdnuca",
                 "scale": SCALE, "faults": "utter nonsense"}
            )


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
            job.partial[job.spec.label] = {"makespan_cycles": 1}
            job.cells_done += 1

        queue._attempt = flaky

        async def go():
            await queue.start()
            job = queue.submit(RunSpec("md5", "tdnuca", scale=SCALE))
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
            job = queue.submit(RunSpec("md5", "tdnuca", scale=SCALE))
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
            job = queue.submit(RunSpec("md5", "tdnuca", scale=SCALE))
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
            queue.submit(RunSpec("md5", "tdnuca", scale=SCALE))
            queue.submit(RunSpec("md5", "snuca", scale=SCALE))
            with pytest.raises(ServiceError) as exc:
                queue.submit(RunSpec("md5", "rnuca", scale=SCALE))
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
            first = queue.submit(RunSpec("md5", "tdnuca", scale=SCALE))
            await wait_settled(first)
            second = queue.submit(RunSpec("md5", "tdnuca", scale=SCALE))
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

    def test_cached_result_is_byte_identical_to_plain_run(self, tmp_path):
        queue = make_queue(tmp_path)

        async def go():
            await queue.start()
            job = queue.submit(RunSpec("md5", "tdnuca", scale=SCALE))
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
            job = queue.submit(RunSpec("md5", "tdnuca", scale=SCALE))
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
            one = queue.submit(RunSpec("md5", "tdnuca", scale=SCALE))
            await wait_settled(one)
            sweep = queue.submit(SweepSpec(
                ("md5",), ("snuca", "tdnuca"), scale=SCALE
            ))
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
            job = queue.submit(RunSpec("lu", "tdnuca", scale=512))
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
            job = queue.submit(RunSpec("lu", "tdnuca", scale=512))
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
            queue.submit(RunSpec("md5", "tdnuca", scale=SCALE))
        assert exc.value.type == "draining"

        async def resumed():
            queue2 = make_queue(
                tmp_path, spool_dir=spool, cache=ResultCache(cache_dir)
            )
            await queue2.start()
            job2 = queue2.submit(RunSpec("lu", "tdnuca", scale=512))
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
            job = queue.submit(RunSpec("lu", "tdnuca", scale=512))
            await wait_settled(job, timeout=120)
            return job

        job = run_async(go())
        assert job.state == "failed"
        assert job.error["type"] == "timeout"
        assert job.error["retryable"] is True
        assert "resume" in job.error["message"]
        # The snapshot survives so a resubmission resumes, not restarts.
        assert list(queue.spool.glob("*.snap"))
