"""Crash-tolerant sweep harness: failure paths, checkpoint/resume, atomics.

The stub runners are module-level so the spawn start method can pickle
them by reference (``tests`` is a package), and take ``**_`` for the
``checkpoint``/``resume_from`` keywords every runner receives under a run
directory.  Where a stub needs state that survives the process boundary
(attempt counting, "which jobs ran"), the harness's opaque ``cfg``
argument carries a scratch-directory path and the stubs leave marker
files in it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.harness import (
    CompletedRun,
    FailedRun,
    Job,
    SweepFailure,
    SweepOutcome,
    config_fingerprint,
    load_manifest,
    retry_delay,
    run_sweep,
)
from repro.failpoints import FAILPOINTS_ENV
from repro.ioutils import atomic_write

SRC = str(Path(__file__).resolve().parents[2] / "src")


# --------------------------------------------------------------------------
# stub runners (must stay module-level: spawn pickles them by reference)


def ok_runner(job, cfg, **_):
    return {"workload": job.workload, "policy": job.policy,
            "makespan_cycles": 100 + len(job.workload)}


def tracking_runner(job, cfg, **_):
    """ok_runner that records which jobs actually executed in cfg (a dir)."""
    Path(cfg, f"ran-{job.workload}-{job.policy}").write_text("")
    return ok_runner(job, cfg)


def crash_runner(job, cfg, **_):
    if job.workload == "boom":
        os._exit(13)
    return ok_runner(job, cfg)


def transient_runner(job, cfg, **_):
    """Fails with OSError until two attempts have been made (cfg is a dir)."""
    marks = sorted(Path(cfg).glob(f"{job.workload}-*.attempt"))
    Path(cfg, f"{job.workload}-{len(marks)}.attempt").write_text("")
    if len(marks) < 2:
        raise OSError("flaky I/O")
    return ok_runner(job, cfg)


def permanent_runner(job, cfg, **_):
    raise ValueError("deterministic config error")


def hang_runner(job, cfg, **_):
    if job.workload == "hang":
        time.sleep(120)
    return ok_runner(job, cfg)


#: well past the 64 KiB a pipe buffers before its writer blocks.
BIG_RESULT_BYTES = 256 * 1024


def big_runner(job, cfg, **_):
    return {**ok_runner(job, cfg), "blob": "x" * BIG_RESULT_BYTES}


# --------------------------------------------------------------------------


class TestInline:
    def test_all_ok(self):
        outcome = run_sweep([Job("a", "p"), Job("b", "p")], runner=ok_runner)
        assert outcome.ok == 2 and outcome.failed == 0
        assert outcome.results()[("a", "p")]["makespan_cycles"] == 101
        assert all(r.attempts == 1 for r in outcome.completed)

    def test_transient_failure_retried(self, tmp_path):
        outcome = run_sweep(
            [Job("flaky", "p")], str(tmp_path),
            runner=transient_runner, retries=2, backoff=0,
        )
        assert outcome.ok == 1 and outcome.failed == 0
        assert outcome.completed[0].attempts == 3
        assert outcome.retried == 1
        assert len(list(tmp_path.glob("flaky-*.attempt"))) == 3

    def test_transient_failure_exhausts_retries(self, tmp_path):
        outcome = run_sweep(
            [Job("flaky", "p")], str(tmp_path),
            runner=transient_runner, retries=1, backoff=0,
        )
        assert outcome.failed == 1
        rec = outcome.failures[0]
        assert rec.error == "OSError" and rec.attempts == 2
        assert not rec.timed_out and "flaky I/O" in rec.message

    def test_permanent_failure_not_retried(self):
        outcome = run_sweep(
            [Job("bad", "p")], runner=permanent_runner, retries=3, backoff=0
        )
        assert outcome.failed == 1
        rec = outcome.failures[0]
        assert rec.error == "ValueError" and rec.attempts == 1
        assert "traceback" in rec.to_dict()["traceback"].lower()

    def test_validation(self):
        with pytest.raises(ValueError):
            run_sweep([Job("a", "p"), Job("a", "p")], runner=ok_runner)
        with pytest.raises(ValueError):
            run_sweep([Job("a", "p")], runner=ok_runner, workers=0)
        with pytest.raises(ValueError):
            run_sweep([Job("a", "p")], runner=ok_runner, retries=-1)
        with pytest.raises(ValueError):
            run_sweep([Job("a", "p")], runner=ok_runner, resume=True)


class TestIsolated:
    def test_worker_crash_degrades_gracefully(self):
        jobs = [Job("a", "p"), Job("boom", "p"), Job("c", "p")]
        outcome = run_sweep(
            jobs, runner=crash_runner, workers=2, retries=1, backoff=0
        )
        assert outcome.ok == 2
        assert outcome.failed == 1
        rec = outcome.failures[0]
        assert rec.workload == "boom"
        assert rec.error == "WorkerCrash"
        assert rec.attempts == 2  # first try + one retry, both crash
        assert "13" in rec.message

    def test_timeout_kills_and_records(self):
        jobs = [Job("hang", "p"), Job("ok", "p")]
        t0 = time.monotonic()
        outcome = run_sweep(
            jobs, runner=hang_runner, workers=2, timeout=3.0, retries=0
        )
        assert time.monotonic() - t0 < 60  # nowhere near the 120s sleep
        assert outcome.ok == 1 and outcome.failed == 1
        rec = outcome.failures[0]
        assert rec.workload == "hang" and rec.timed_out
        assert rec.error == "Timeout"
        assert outcome.timed_out == 1

    def test_result_larger_than_the_pipe_buffer_is_received(self):
        # The worker blocks in send until the parent reads; a parent that
        # only reads after the worker exits would wait out the timeout.
        jobs = [Job("a", "p"), Job("b", "p")]
        t0 = time.monotonic()
        outcome = run_sweep(
            jobs, runner=big_runner, workers=2, timeout=20.0, retries=0
        )
        assert time.monotonic() - t0 < 10
        assert outcome.ok == 2 and outcome.failed == 0
        assert all(
            len(run.result["blob"]) == BIG_RESULT_BYTES
            for run in outcome.completed
        )

    def test_permanent_error_reported_across_process(self):
        outcome = run_sweep(
            [Job("bad", "p")], runner=permanent_runner,
            workers=2, retries=3, backoff=0,
        )
        assert outcome.failed == 1
        rec = outcome.failures[0]
        assert rec.error == "ValueError" and rec.attempts == 1
        assert "deterministic config error" in rec.message
        assert "permanent_runner" in rec.traceback

    def test_crash_env_hook(self, monkeypatch):
        monkeypatch.setenv(FAILPOINTS_ENV, "harness.worker.crash=*@job:a/p")
        outcome = run_sweep(
            [Job("a", "p"), Job("b", "p")], runner=ok_runner,
            workers=2, retries=0,
        )
        assert outcome.failed == 1
        assert outcome.failures[0].workload == "a"
        assert outcome.failures[0].error == "WorkerCrash"


class TestCheckpointResume:
    def test_shards_and_manifest_written(self, tmp_path):
        rd = tmp_path / "run"
        outcome = run_sweep(
            [Job("a", "p"), Job("boom", "p")], run_dir=rd,
            runner=crash_runner, workers=2, retries=0,
            request={"scale": 64},
        )
        assert outcome.ok == 1 and outcome.failed == 1
        ok_shard = json.loads((rd / "shards" / "a__p__s0.json").read_text())
        assert ok_shard["status"] == "ok"
        assert ok_shard["result"]["makespan_cycles"] == 101
        bad_shard = json.loads((rd / "shards" / "boom__p__s0.json").read_text())
        assert bad_shard["status"] == "failed"
        assert bad_shard["failure"]["error"] == "WorkerCrash"
        manifest = load_manifest(rd)
        assert manifest["request"] == {"scale": 64}
        assert manifest["status"]["boom/p"]["status"] == "failed"
        assert manifest["failures"][0]["workload"] == "boom"

    def test_resume_runs_only_unfinished_jobs(self, tmp_path):
        rd = tmp_path / "run"
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        jobs = [Job("a", "p"), Job("boom", "p"), Job("c", "p")]
        first = run_sweep(
            jobs, str(scratch), run_dir=rd,
            runner=crash_runner, workers=2, retries=0,
        )
        assert first.failed == 1
        # resume with a runner that succeeds and records what it ran
        second = run_sweep(
            jobs, str(scratch), run_dir=rd, resume=True,
            runner=tracking_runner, workers=2, retries=0,
        )
        assert second.ok == 3 and second.failed == 0
        assert second.from_checkpoint == 2
        ran = sorted(p.name for p in scratch.glob("ran-*"))
        assert ran == ["ran-boom-p"]  # only the crashed job re-ran
        merged = second.result_dicts()
        assert set(merged) == {("a", "p"), ("boom", "p"), ("c", "p")}

    def test_resume_rejects_different_config(self, tmp_path):
        rd = tmp_path / "run"
        run_sweep([Job("a", "p")], "cfg-one", run_dir=rd, runner=ok_runner)
        with pytest.raises(ValueError, match="different configuration"):
            run_sweep(
                [Job("a", "p")], "cfg-two", run_dir=rd, resume=True,
                runner=ok_runner,
            )

    def test_resume_requires_manifest(self, tmp_path):
        with pytest.raises(ValueError, match="not a sweep run directory"):
            run_sweep(
                [Job("a", "p")], run_dir=tmp_path / "empty", resume=True,
                runner=ok_runner,
            )

    def test_corrupt_shard_is_rerun(self, tmp_path):
        rd = tmp_path / "run"
        run_sweep([Job("a", "p")], run_dir=rd, runner=ok_runner)
        (rd / "shards" / "a__p__s0.json").write_text('{"status": "ok", "tru')
        outcome = run_sweep(
            [Job("a", "p")], run_dir=rd, resume=True, runner=ok_runner
        )
        assert outcome.ok == 1 and outcome.from_checkpoint == 0


class TestOutcomeAndRecords:
    def test_failed_run_roundtrip(self):
        rec = FailedRun("a", "p", 0, "Timeout", "deadline", "", 2, 1.5, True)
        assert FailedRun.from_dict(rec.to_dict()) == rec

    def test_duplicate_pair_rejected_in_merge(self):
        outcome = SweepOutcome(
            completed=[
                CompletedRun("a", "p", 0, 1, 0.1, {"x": 1}),
                CompletedRun("a", "p", 1, 1, 0.1, {"x": 2}),
            ]
        )
        with pytest.raises(ValueError, match="duplicate run"):
            outcome.result_dicts()

    def test_sweep_failure_message(self):
        failures = [
            FailedRun(f"w{i}", "p", 0, "OSError", "m", "", 1, 0.1)
            for i in range(7)
        ]
        exc = SweepFailure(failures)
        assert "7 sweep job(s) failed" in str(exc)
        assert "and 2 more" in str(exc)

    def test_config_fingerprint_stability(self):
        from repro.config import scaled_config

        a, b = scaled_config(1 / 64), scaled_config(1 / 64)
        assert config_fingerprint(a) == config_fingerprint(b)
        assert config_fingerprint(a) != config_fingerprint(scaled_config(1 / 128))

    def test_config_fingerprint_is_the_snapshot_fingerprint(self):
        from dataclasses import replace

        from repro.config import scaled_config
        from repro.snapshot import config_sha256

        cfg = scaled_config(1 / 1024)
        assert config_fingerprint(cfg) == config_sha256(cfg)
        assert config_fingerprint(replace(cfg, kernel="reference")) == (
            config_fingerprint(cfg)
        )


class TestRetryDelay:
    def test_exponential_without_rng(self):
        assert retry_delay(1, 0.25) == 0.25
        assert retry_delay(2, 0.25) == 0.5
        assert retry_delay(3, 0.25) == 1.0

    def test_capped(self):
        assert retry_delay(50, 0.25) == 30.0
        assert retry_delay(50, 0.25, cap=2.0) == 2.0

    def test_jitter_stays_within_half_to_full(self):
        import random

        rng = random.Random(7)
        for attempt in range(1, 8):
            base = retry_delay(attempt, 0.25)
            for _ in range(20):
                d = retry_delay(attempt, 0.25, rng=rng)
                assert 0.5 * base <= d <= base

    def test_zero_backoff_means_no_delay(self):
        import random

        assert retry_delay(3, 0.0) == 0.0
        assert retry_delay(3, 0.0, rng=random.Random(0)) == 0.0


class TestAtomicWrite:
    def test_writes_complete_file(self, tmp_path):
        target = tmp_path / "out.json"
        with atomic_write(target) as fh:
            fh.write('{"ok": true}')
        assert json.loads(target.read_text()) == {"ok": True}
        assert list(tmp_path.glob("*.tmp")) == []

    def test_error_leaves_target_untouched(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text('{"old": 1}')
        with pytest.raises(RuntimeError):
            with atomic_write(target) as fh:
                fh.write('{"new": ')
                raise RuntimeError("interrupted")
        assert json.loads(target.read_text()) == {"old": 1}
        assert list(tmp_path.glob("*.tmp")) == []

    def test_rejects_read_modes(self, tmp_path):
        for mode in ("r", "a", "w+"):
            with pytest.raises(ValueError):
                with atomic_write(tmp_path / "x", mode=mode):
                    pass

    def test_kill9_mid_write_never_truncates(self, tmp_path):
        """SIGKILL between write() and replace() must leave the previous
        complete content in place (acceptance criterion)."""
        target = tmp_path / "out.json"
        target.write_text('{"old": true}')
        code = (
            "import os, sys; sys.path.insert(0, sys.argv[2])\n"
            "from repro.ioutils import atomic_write\n"
            "ctx = atomic_write(sys.argv[1])\n"
            "fh = ctx.__enter__()\n"
            "fh.write('{\"new\": '); fh.flush()\n"
            "os.kill(os.getpid(), 9)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(target), SRC],
            capture_output=True,
        )
        assert proc.returncode == -9
        assert json.loads(target.read_text()) == {"old": True}
        # a leftover *.tmp staging file is acceptable; a truncated target is not
        for leftover in tmp_path.iterdir():
            if leftover != target:
                assert leftover.name.endswith(".tmp")


class TestRunSuiteDelegation:
    def test_failure_raises_sweep_failure(self, monkeypatch):
        from repro.api import Session

        def explode(job, cfg, **_):
            raise RuntimeError("sim blew up")

        monkeypatch.setattr(
            "repro.experiments.harness._default_runner", explode
        )
        with pytest.raises(SweepFailure) as info:
            Session().suite(["md5"], ["snuca"])
        assert info.value.failures[0].error == "RuntimeError"

    def test_real_suite_through_harness(self):
        from repro.api import Session
        from repro.config import scaled_config

        res = Session(scaled_config(1 / 2048)).suite(["md5"], ["snuca"])
        assert res[("md5", "snuca")].makespan > 0
