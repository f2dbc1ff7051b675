"""Harness graceful preemption: signals, snapshots, resume, no orphans.

Real-simulation tests run the golden-scale (1/1024) machine so preempted
snapshots exercise every stateful subsystem; stub-runner tests cover the
orchestration edges (quarantine, schema compatibility, signal hygiene)
without simulation cost.
"""

from __future__ import annotations

import json
import multiprocessing
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.config import scaled_config
from repro.experiments.harness import (
    SNAPSHOT_DIR,
    Job,
    load_manifest,
    run_sweep,
)
from repro.experiments.serialize import SCHEMA_VERSION
from repro.failpoints import FAILPOINTS_ENV

SCALE = 1.0 / 1024.0
JOBS = [Job("kmeans", "tdnuca"), Job("kmeans", "snuca")]


def _cfg():
    return scaled_config(SCALE)


def _reference_results():
    outcome = run_sweep(JOBS, _cfg())
    assert outcome.ok == len(JOBS) and not outcome.failures
    return {
        (r.workload, r.policy): r.result_dict() for r in outcome.completed
    }


def _strip_resume_marker(d):
    return {k: v for k, v in d.items() if k != "resumed_from_task"}


class TestPreemptResume:
    def test_inline_preempt_then_resume_byte_identical(self, tmp_path):
        reference = _reference_results()
        run_dir = tmp_path / "run"

        first = run_sweep(
            JOBS, _cfg(), run_dir=run_dir, preempt_after_tasks=5
        )
        assert first.ok == 0 and not first.failures
        assert [
            (p.workload, p.policy, p.tasks_done) for p in first.preempted
        ] == [("kmeans", "snuca", 5), ("kmeans", "tdnuca", 5)]
        for p in first.preempted:
            assert Path(p.snapshot).exists()
        manifest = load_manifest(run_dir)
        assert manifest["sweep_status"] == "complete"
        assert all(
            rec["status"] == "preempted" for rec in manifest["status"].values()
        )

        events = []
        second = run_sweep(
            JOBS, _cfg(), run_dir=run_dir, resume=True,
            on_event=lambda kind, job, detail: events.append(kind),
        )
        assert events.count("resumed") == len(JOBS)
        assert second.ok == len(JOBS) and not second.failures
        assert not second.preempted and not second.interrupted
        for run in second.completed:
            d = run.result_dict()
            assert d["resumed_from_task"] == 5
            assert _strip_resume_marker(d) == reference[
                (run.workload, run.policy)
            ]
        assert load_manifest(run_dir)["sweep_status"] == "complete"

    def test_isolated_preempt_then_resume_byte_identical(self, tmp_path):
        reference = _reference_results()
        run_dir = tmp_path / "run"

        first = run_sweep(
            JOBS, _cfg(), run_dir=run_dir, workers=2,
            preempt_after_tasks=5,
        )
        assert len(first.preempted) == len(JOBS) and not first.failures
        assert multiprocessing.active_children() == []

        second = run_sweep(
            JOBS, _cfg(), run_dir=run_dir, resume=True, workers=2
        )
        assert second.ok == len(JOBS) and not second.failures
        for run in second.completed:
            assert _strip_resume_marker(run.result_dict()) == reference[
                (run.workload, run.policy)
            ]

    def test_periodic_checkpoint_does_not_disturb_results(self, tmp_path):
        reference = _reference_results()
        outcome = run_sweep(
            JOBS, _cfg(), run_dir=tmp_path / "run", checkpoint_every=3
        )
        assert outcome.ok == len(JOBS) and not outcome.preempted
        snaps = list((tmp_path / "run" / SNAPSHOT_DIR).glob("*.snap"))
        assert len(snaps) == len(JOBS)
        for run in outcome.completed:
            assert run.result_dict() == reference[(run.workload, run.policy)]


class TestSignalHygiene:
    def test_sigterm_drains_workers_and_leaves_no_orphans(
        self, tmp_path, monkeypatch
    ):
        """SIGTERM mid-sweep: every worker is joined (no orphan children),
        the outcome reports interrupted, and a later resume completes all
        jobs correctly."""
        # Hold workers mid-flight.
        monkeypatch.setenv(FAILPOINTS_ENV, "harness.worker.slow=*@param:8")
        run_dir = tmp_path / "run"
        timer = threading.Timer(
            3.0, lambda: signal.raise_signal(signal.SIGTERM)
        )
        timer.start()
        t0 = time.monotonic()
        try:
            outcome = run_sweep(
                JOBS, _cfg(), run_dir=run_dir, workers=2, retries=0,
            )
        finally:
            timer.cancel()
        assert outcome.interrupted
        assert outcome.ok == 0 and not outcome.failures
        assert multiprocessing.active_children() == []
        # The stop is graceful but prompt: well under the workers' sleep
        # plus simulation time, thanks to checkpoint-at-next-boundary.
        assert time.monotonic() - t0 < 60
        assert load_manifest(run_dir)["sweep_status"] == "interrupted"

        monkeypatch.delenv(FAILPOINTS_ENV)
        resumed = run_sweep(
            JOBS, _cfg(), run_dir=run_dir, resume=True, workers=2
        )
        assert resumed.ok == len(JOBS) and not resumed.failures
        assert multiprocessing.active_children() == []

    def test_sweep_deadline_preempts_inline_jobs(self, tmp_path):
        run_dir = tmp_path / "run"
        outcome = run_sweep(
            JOBS, _cfg(), run_dir=run_dir, deadline=0.001,
        )
        assert outcome.interrupted
        assert outcome.ok == 0 and not outcome.failures
        # The first job checkpoints at its first task boundary; the rest
        # never start.
        assert len(outcome.preempted) >= 1
        resumed = run_sweep(JOBS, _cfg(), run_dir=run_dir, resume=True)
        assert resumed.ok == len(JOBS) and not resumed.failures


class TestQuarantine:
    def test_corrupt_snapshot_falls_back_to_fresh_run(self, tmp_path):
        reference = _reference_results()
        run_dir = tmp_path / "run"
        first = run_sweep(
            JOBS, _cfg(), run_dir=run_dir, preempt_after_tasks=5
        )
        assert len(first.preempted) == len(JOBS)

        victim = Path(first.preempted[0].snapshot)
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0x01  # bit rot in the payload
        victim.write_bytes(bytes(raw))

        with pytest.warns(UserWarning, match="corrupt snapshot"):
            second = run_sweep(
                JOBS, _cfg(), run_dir=run_dir, resume=True
            )
        assert second.ok == len(JOBS) and not second.failures
        assert victim.with_name(victim.name + ".corrupt").exists()
        by_key = {(r.workload, r.policy): r.result_dict()
                  for r in second.completed}
        bad = first.preempted[0]
        # The quarantined job reran from scratch (no resume marker) but
        # still converged on the reference statistics.
        assert "resumed_from_task" not in by_key[(bad.workload, bad.policy)]
        for key, d in by_key.items():
            assert _strip_resume_marker(d) == reference[key]

    def test_corrupt_snapshot_is_not_announced_as_a_resume(self, tmp_path):
        # The ``resumed`` event promises a continuation; a snapshot the
        # attempt will quarantine must not trigger it.
        run_dir = tmp_path / "run"
        first = run_sweep(
            JOBS, _cfg(), run_dir=run_dir, preempt_after_tasks=5
        )
        assert len(first.preempted) == len(JOBS)
        bad = first.preempted[0]
        victim = Path(bad.snapshot)
        raw = bytearray(victim.read_bytes())
        raw[len(raw) // 2] ^= 0x01  # one flipped byte
        victim.write_bytes(bytes(raw))

        resumed = []
        with pytest.warns(UserWarning, match="corrupt snapshot"):
            second = run_sweep(
                JOBS, _cfg(), run_dir=run_dir, resume=True,
                on_event=lambda kind, job, detail: (
                    resumed.append(job.label) if kind == "resumed" else None
                ),
            )
        bad_label = Job(bad.workload, bad.policy).label
        assert bad_label not in resumed
        assert len(resumed) == len(JOBS) - 1
        by_key = {(r.workload, r.policy): r.result_dict()
                  for r in second.completed}
        assert "resumed_from_task" not in by_key[(bad.workload, bad.policy)]

    def test_snapshot_of_another_job_is_quarantined_and_the_job_reruns(
        self, tmp_path
    ):
        reference = _reference_results()
        run_dir = tmp_path / "run"
        first = run_sweep(
            JOBS, _cfg(), run_dir=run_dir, preempt_after_tasks=5
        )
        assert len(first.preempted) == len(JOBS)
        snaps = run_dir / SNAPSHOT_DIR
        victim = snaps / "kmeans__tdnuca__s0.snap"
        victim.write_bytes((snaps / "kmeans__snuca__s0.snap").read_bytes())

        second = run_sweep(JOBS, _cfg(), run_dir=run_dir, resume=True)
        assert second.ok == len(JOBS) and not second.failures
        assert victim.with_name(victim.name + ".corrupt").exists()
        by_key = {(r.workload, r.policy): r.result_dict()
                  for r in second.completed}
        assert "resumed_from_task" not in by_key[("kmeans", "tdnuca")]
        assert by_key[("kmeans", "snuca")]["resumed_from_task"] == 5
        for key, d in by_key.items():
            assert _strip_resume_marker(d) == reference[key]


class TestSchemaCompat:
    def test_schema_v3_ok_shard_still_loads(self, tmp_path):
        """Archives written before the preemption feature (schema 3)
        resume cleanly under schema 4."""
        run_dir = tmp_path / "run"
        first = run_sweep(JOBS, _cfg(), run_dir=run_dir)
        assert first.ok == len(JOBS)

        # Age the whole run directory back to schema 3.
        manifest_path = run_dir / "manifest.json"
        doc = json.loads(manifest_path.read_text())
        assert doc["schema_version"] == SCHEMA_VERSION == 4
        doc["schema_version"] = 3
        manifest_path.write_text(json.dumps(doc))
        for shard in (run_dir / "shards").glob("*.json"):
            rec = json.loads(shard.read_text())
            rec["schema_version"] = 3
            rec["result"].pop("resumed_from_task", None)
            shard.write_text(json.dumps(rec))

        ran = []
        second = run_sweep(
            JOBS, _cfg(), run_dir=run_dir, resume=True,
            on_event=lambda kind, job, detail: ran.append((kind, job.label)),
        )
        assert second.ok == len(JOBS)
        assert second.from_checkpoint == len(JOBS)  # nothing re-ran
        assert all(kind == "skipped" for kind, _ in ran)
