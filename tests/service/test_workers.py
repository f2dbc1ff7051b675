"""Crash-isolated worker pool: launch, deaths, leases, poison, degradation.

Every test injects faults through the deterministic failpoint registry
(forwarded to the forked worker via the attempt payload) and uses the
smallest real simulation (md5 @ scale 2048, ~130 tasks) because crash ->
resume byte-identity is the property under test.

Determinism note: failpoint hit counters are per-process and reset when
a worker respawns, so cross-attempt injection uses context filters —
``@attempt:1`` fires in the first attempt's worker only, and the retry
(attempt 2) runs clean.
"""

from __future__ import annotations

import ast
import asyncio
import json
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro import failpoints, template
from repro.api import Session
from repro.config import scaled_config
from repro.scenario import Scenario
from repro.service import workers
from repro.service.cache import ResultCache
from repro.service.envelope import ServiceError
from repro.service.queue import Job, JobQueue, service_form
from repro.service.workers import WorkerDied, WorkerPool
from tests.conftest import run_of

SCALE = 2048
CFG = scaled_config(1 / SCALE)


@pytest.fixture(autouse=True)
def _clean_failpoints():
    failpoints.reset()
    yield
    failpoints.reset()


def run_async(coro):
    return asyncio.run(coro)


async def wait_settled(job, timeout=120.0):
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


def submit_and_settle(queue, scenario, timeout=120.0):
    async def go():
        await queue.start()
        job = queue.submit(scenario)
        await wait_settled(job, timeout=timeout)
        await queue.drain(grace=0.5)
        return job

    return run_async(go())


def md5_job():
    """A job record of md5/tdnuca at the test scale."""
    return Job(id="j", scenario=service_form(run_of("md5", "tdnuca",
                                                    scale=SCALE)))


def reference_result():
    return Session(CFG).run("md5", "tdnuca").stats_dict()


def proc_stat(pid):
    """``(state, ppid)`` from /proc, or ``None`` once the pid is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


def running(pid):
    stat = proc_stat(pid)
    return stat is not None and stat[0] not in ("Z", "X")


class TestForkedLaunch:
    """Attempts fork from a pre-imported template, yet stay isolated."""

    def test_each_attempt_is_a_fresh_process_with_import_time_state(
        self, tmp_path, monkeypatch
    ):
        from repro import template

        procs = []

        class Recording(template.AttemptHandle):
            def __init__(self, proc, *args):
                super().__init__(proc, *args)
                procs.append(proc)

        monkeypatch.setattr(template, "AttemptHandle", Recording)
        pool = WorkerPool(1, spool=tmp_path)
        job = md5_job()
        # Attempt 1 installs, in its own failpoint registry, a crash that
        # only attempt 2 would trip.  Attempt 2's payload carries no
        # failpoint spec, so it crashes iff it inherited attempt 1's
        # module state.
        failpoints.configure("worker.start.crash=*@attempt:2")
        job.attempts = 1
        pool.run_attempt(job, None)
        failpoints.reset()
        job.attempts = 2
        job.partial.clear()
        pool.run_attempt(job, None)
        pool.kill_all()
        assert job.simulated == 2
        pids = {p.pid for p in procs}
        assert len(pids) == 2 and os.getpid() not in pids

    def test_an_attempt_compiles_its_config_once(self, tmp_path, monkeypatch):
        """The payload carries the scenario itself: the attempt body
        compiles it once (twice from the flat spec dict)."""
        pool = WorkerPool(1, spool=tmp_path, cache_dir=tmp_path / "cache")
        job = md5_job()
        job.attempts = 1
        # what a forked child unpickles
        payload = pickle.loads(pickle.dumps(pool._payload(job)))
        assert payload["scenario"] == job.scenario
        compiles = []
        to_config = Scenario.to_config

        def counting(scenario):
            compiles.append(scenario.name)
            return to_config(scenario)

        monkeypatch.setattr(Scenario, "to_config", counting)
        workers._run_cells(template.Attempt(payload))
        assert compiles == ["md5/tdnuca"]
        # the cell ran and was published to the cache
        assert len(list((tmp_path / "cache").glob("*.rcache"))) == 1

    def test_template_preloads_repro_reached_only_through_sys_path(
        self, tmp_path
    ):
        """A launcher that finds ``repro`` through ``sys.path`` alone (no
        ``PYTHONPATH``) still gets a template that imported it: the
        attempt's ``repro.template`` was imported by its parent."""
        (tmp_path / "probe_body.py").write_text(
            "import os\n"
            "import sys\n"
            "from repro import template\n\n"
            "def report(attempt):\n"
            "    missing = [m for m in template.PRELOAD if m not in sys.modules]\n"
            "    stamp = getattr(template, 'IMPORTED_BY', None)\n"
            "    return os.getpid(), stamp, missing\n"
        )
        src = Path(repro.__file__).resolve().parents[1]
        code = (
            "import sys\n"
            f"sys.path[:0] = [{str(src)!r}, {str(tmp_path)!r}]\n"
            "from repro import template\n"
            "import probe_body\n"
            "handle = template.launch(probe_body.report, {'label': 'probe', "
            "'attempt': 1, 'start_sites': [], 'checkpoints': False})\n"
            "print(repr(handle.supervise(None, grace=1.0)))\n"
            "template.stop_idle_template()\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=tmp_path,
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        verdict = ast.literal_eval(out.stdout.strip().splitlines()[-1])
        assert verdict[0] == "ok", verdict
        pid, imported_by, missing = verdict[1]
        assert not missing, f"the template did not preload {missing}"
        assert imported_by not in (None, pid), "the attempt imported repro"

    def test_attempt_for_a_dead_server_exits_98_before_simulating(
        self, tmp_path, monkeypatch
    ):
        gone = subprocess.Popen([sys.executable, "-c", "pass"])
        gone.wait()
        pool = WorkerPool(1, spool=tmp_path)
        payload = pool._payload
        monkeypatch.setattr(
            pool, "_payload",
            lambda job: {**payload(job), "parent_pid": gone.pid},
        )
        job = md5_job()
        job.attempts = 1
        with pytest.raises(WorkerDied) as exc:
            pool.run_attempt(job, None)
        pool.kill_all()
        assert exc.value.exitcode == 98
        assert job.cells_done == 0 and job.simulated == 0

    def test_drain_leaves_no_template_or_worker_alive(self, tmp_path):
        failpoints.configure("worker.hang=*@task_ge:1@param:60")
        queue = make_queue(tmp_path)

        async def go():
            await queue.start()
            job = queue.submit(run_of("md5", "tdnuca", scale=SCALE))
            deadline = time.monotonic() + 60
            while job.current_ck is None or not job.current_ck.ready:
                assert time.monotonic() < deadline, "worker never got ready"
                await asyncio.sleep(0.01)
            worker = job.current_ck.proc.pid
            _, template = proc_stat(worker)
            await queue.drain(grace=0.5)
            return worker, template

        worker, template = run_async(go())
        assert template != os.getpid(), "the worker was not forked by a template"
        assert not running(worker)
        assert not running(template)

    def test_kill_all_leaves_the_exit_status_to_the_supervisor(self, tmp_path):
        # kill_all runs on the drain's thread while the attempt's own
        # supervisor waits on the same child.  A forked child's exit
        # status can be read only once, so if kill_all read it too the
        # supervisor would report exit code 255 instead of signal 9.
        failpoints.configure("worker.hang=*@task_ge:1@param:60")
        pool = WorkerPool(1, spool=tmp_path)
        job = md5_job()
        job.attempts = 1
        died = []

        def attempt():
            try:
                pool.run_attempt(job, None)
            except WorkerDied as exc:
                died.append(exc)

        supervisor = threading.Thread(target=attempt)
        supervisor.start()
        deadline = time.monotonic() + 60
        while job.current_ck is None or not job.current_ck.ready:
            assert time.monotonic() < deadline, "worker never got ready"
            time.sleep(0.01)
        assert pool.kill_all() == 1
        assert pool.stats()["alive"] == 0
        supervisor.join(timeout=30)
        assert not supervisor.is_alive()
        assert [exc.term_signal for exc in died] == [signal.SIGKILL]


class TestCrashRecovery:
    def test_kill9_mid_job_resumes_byte_identically(self, tmp_path):
        # SIGKILL the worker at the first task boundary >= 50, first
        # attempt only.  checkpoint_every=25 guarantees a periodic
        # snapshot exists below the crash point, so the retry resumes.
        failpoints.configure("worker.crash=*@attempt:1@task_ge:50")
        queue = make_queue(tmp_path, checkpoint_every=25)
        job = submit_and_settle(queue, run_of("md5", "tdnuca", scale=SCALE))
        assert job.state == "done"
        assert job.worker_deaths == 1
        assert job.attempts == 2
        assert job.resumed_from_task is not None
        assert json.dumps(job.result, sort_keys=True) == json.dumps(
            reference_result(), sort_keys=True
        )
        kinds = [e["kind"] for e in job.events.since(0)[0]]
        assert "worker_died" in kinds and "retry" in kinds
        stats = queue.stats()
        assert stats["worker_deaths"] == 1
        assert stats["pool"]["deaths"] == 1
        assert stats["pool"]["restarts"] == 1
        # The SIGKILL is visible as the worker's terminating signal.
        died = next(e for e in job.events.since(0)[0]
                    if e["kind"] == "worker_died")
        assert died["signal"] == 9
        assert died["reason"] == "crashed"
        # Snapshot consumed on success.
        assert not list(queue.spool.glob("*.snap"))

    def test_startup_crash_is_requeued(self, tmp_path):
        # Exit 99 before simulating anything — the spot-instance case.
        failpoints.configure("worker.start.crash=*@attempt:1")
        queue = make_queue(tmp_path)
        job = submit_and_settle(queue, run_of("md5", "tdnuca", scale=SCALE))
        assert job.state == "done"
        assert job.worker_deaths == 1 and job.attempts == 2
        died = next(e for e in job.events.since(0)[0]
                    if e["kind"] == "worker_died")
        assert died["exitcode"] == 99

    def test_hung_worker_loses_lease_and_job_recovers(self, tmp_path):
        # The worker stops heartbeating mid-simulation (sleep 60 at a
        # task boundary); the supervisor kills it at lease expiry and the
        # retry completes clean.
        failpoints.configure(
            "worker.hang=*@attempt:1@task_ge:30@param:60"
        )
        queue = make_queue(
            tmp_path, checkpoint_every=25, lease_timeout=1.0
        )
        job = submit_and_settle(queue, run_of("md5", "tdnuca", scale=SCALE))
        assert job.state == "done"
        assert job.worker_deaths == 1 and job.attempts == 2
        died = next(e for e in job.events.since(0)[0]
                    if e["kind"] == "worker_died")
        assert died["reason"] == "lease-expired"
        assert died["heartbeat_age_s"] >= 1.0
        assert queue.stats()["pool"]["lease_expired"] == 1
        assert json.dumps(job.result, sort_keys=True) == json.dumps(
            reference_result(), sort_keys=True
        )

    def test_worker_oom_is_a_classified_transient_failure(self, tmp_path):
        # The oom action allocates until MemoryError (capped at 64 MB
        # here — no rlimit needed); the worker survives to report it, so
        # this is a WorkerJobError retried under the normal budget.
        failpoints.configure("worker.oom=*@attempt:1@task_ge:30@param:64")
        queue = make_queue(tmp_path, retries=1, checkpoint_every=25)
        job = submit_and_settle(queue, run_of("md5", "tdnuca", scale=SCALE))
        assert job.state == "done"
        assert job.attempts == 2
        assert job.worker_deaths == 0  # clean error, not a dead worker
        retry = next(e for e in job.events.since(0)[0]
                     if e["kind"] == "retry")
        assert retry["error"] == "MemoryError"

    def test_hard_timeout_fails_typed(self, tmp_path, monkeypatch):
        # A hang without lease expiry (lease_timeout is generous): the
        # budget's hard backstop kills the worker and the job fails with
        # the typed timeout the thread-pool era promised.
        import repro.service.workers as workers_mod

        monkeypatch.setattr(workers_mod, "HARD_TIMEOUT_GRACE", 0.5)
        failpoints.configure("worker.hang=*@task_ge:1@param:60")
        queue = make_queue(
            tmp_path, timeout=0.2, retries=0, lease_timeout=120.0
        )
        job = submit_and_settle(queue, run_of("md5", "tdnuca", scale=SCALE))
        assert job.state == "failed"
        assert job.error["type"] == "timeout"
        died = next(e for e in job.events.since(0)[0]
                    if e["kind"] == "worker_died")
        assert died["reason"] == "hard-timeout"


class TestPoisonQuarantine:
    def test_three_deaths_quarantine_with_diagnostic_bundle(self, tmp_path):
        # Unconditional crash for this job label: every attempt kills its
        # worker.  At poison_after=3 deaths the job must be quarantined —
        # even though retries=5 would otherwise keep it running.
        failpoints.configure("worker.crash=*@job:md5/tdnuca@task_ge:10")
        queue = make_queue(
            tmp_path, workers=2, retries=5, poison_after=3,
            checkpoint_every=25,
        )
        spec = run_of("md5", "tdnuca", scale=SCALE)

        async def go():
            await queue.start()
            job = queue.submit(spec)
            await wait_settled(job)
            # Never re-admitted within this server lifetime: the
            # resubmission is rejected synchronously, before touching
            # queue or pool.
            with pytest.raises(ServiceError) as exc:
                queue.submit(run_of("md5", "tdnuca", scale=SCALE))
            await queue.drain(grace=0.5)
            return job, exc.value

        job, rejection = run_async(go())
        assert job.state == "failed"
        assert job.error["type"] == "poisoned"
        assert job.error["retryable"] is False
        assert job.worker_deaths == 3 and job.attempts == 3

        # The diagnostic bundle names everything an operator needs.
        bundles = list((queue.spool / "poison").glob("*.json"))
        assert len(bundles) == 1
        bundle = json.loads(bundles[0].read_text())
        assert bundle["kind"] == "poison-quarantine"
        assert bundle["label"] == "md5/tdnuca"
        assert bundle["job_id"] == job.id
        assert bundle["attempts"] == 3
        assert bundle["worker_deaths"] == 3
        assert bundle["last_death"]["signal"] == 9
        assert bundle["last_death"]["reason"] == "crashed"
        assert bundle["last_death"]["heartbeat_age_s"] >= 0
        assert bundle["job_key"] == job.key
        assert bundle["scenario"] == job.scenario.to_dict()
        assert bundle["events_tail"]

        assert rejection.type == "poisoned"
        assert "quarantined" in rejection.message
        stats = queue.stats()
        assert stats["poisoned"] == 1
        assert stats["pool"]["deaths"] == 3

    def test_death_burst_degrades_concurrency_then_recovers(self, tmp_path):
        failpoints.configure("worker.crash=*@job:md5/tdnuca@task_ge:10")
        queue = make_queue(
            tmp_path, workers=2, retries=5, poison_after=3,
            degrade_after=2, checkpoint_every=25,
        )

        async def go():
            await queue.start()
            poison = queue.submit(run_of("md5", "tdnuca", scale=SCALE))
            await wait_settled(poison)
            degraded = queue.pool.concurrency
            # A healthy job completes despite the carnage and buys the
            # pool one step of concurrency back.
            healthy = queue.submit(run_of("md5", "snuca", scale=SCALE))
            await wait_settled(healthy)
            # note_ok only restores once the death window has passed.
            queue.pool._death_times.clear()
            queue.pool.note_ok()
            restored = queue.pool.concurrency
            await queue.drain(grace=0.5)
            return poison, degraded, healthy, restored

        poison, degraded, healthy, restored = run_async(go())
        assert poison.error["type"] == "poisoned"
        assert degraded == 1, "2+ deaths in the window must shed to 1"
        assert healthy.state == "done"
        assert restored == 2


class TestMonotonicHeartbeats:
    """Lease-expiry decisions must ride the monotonic clock: an NTP step
    in either direction cannot make a healthy worker look dead."""

    def test_heartbeat_age_ignores_wall_clock_steps(self):
        from repro.template import _HB_MONO, _HB_WALL, AttemptHandle, _stamp

        hb = [0.0, 0.0]
        _stamp(hb)
        handle = AttemptHandle(proc=None, hb=hb)
        # a wall-clock step decades backwards: diagnostics move, age not
        hb[_HB_WALL] = 0.0
        assert handle.heartbeat_age() < 1.0
        assert handle.heartbeat_wall() == 0.0
        # a *monotonic* silence is what ages the lease
        hb[_HB_MONO] = time.monotonic() - 42.0
        assert 41.0 < handle.heartbeat_age() < 44.0

    def test_stamp_fills_both_slots(self):
        from repro.template import _HB_MONO, _HB_WALL, _stamp

        hb = [0.0, 0.0]
        before_wall = time.time()
        _stamp(hb)
        assert abs(hb[_HB_MONO] - time.monotonic()) < 1.0
        assert hb[_HB_WALL] >= before_wall
