#!/usr/bin/env python
"""CI smoke test for the crash-tolerant sweep harness.

Runs a 2-workload parallel sweep through the real CLI with one injected
worker crash (the ``harness.worker.crash`` failpoint), verifies the sweep
degrades gracefully (remaining jobs complete, failure archived in the
manifest and the merged JSON), then resumes it and asserts the merged
output is complete, failure-free, and that already-finished shards were
not re-run.  An isolated sweep then runs one cell whose pickled result is
larger than a pipe's 64 KiB buffer under ``--timeout``, so a parent that
stops draining its workers' result pipes fails fast instead of hanging.
Last, a two-cell sweep is ``kill -9``'d mid-job: every process it started
(the fork template, its workers, the resource tracker) must exit within
:data:`REAP_WITHIN` seconds, and ``--resume`` must continue the long job
from the snapshot its orphaned worker left and finish the campaign with
the runs of an uninterrupted sweep.

Usage: ``PYTHONPATH=src python scripts/sweep_smoke.py``
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from service_smoke import _descendants, _running_parents

ROOT = Path(__file__).resolve().parents[1]
CRASH_JOB = "md5/tdnuca"
EXPECTED_RUNS = {"md5/snuca", "md5/tdnuca", "knn/snuca", "knn/tdnuca"}
#: ~100 KB pickled at 1/1024, mostly its dependency categories.
BIG_RESULT_JOB = "histo/tdnuca"
#: the kill -9 leg's sweep; gauss/tdnuca runs ~6-7 s isolated at 1/1024.
KILL_CELLS = ["--scale", "1024", "--workloads", "gauss",
              "--policies", "snuca", "tdnuca", "--jobs", "2"]
#: seconds between the workers' start and the SIGKILL: mid-job.
KILL_AFTER = 1.0
#: a task boundary at 1/1024 is milliseconds away, so an orphaned worker
#: has long checkpointed and exited by then.
REAP_WITHIN = 3.0


def _argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


def _env(**overrides: str) -> dict[str, str]:
    env = {**os.environ, **overrides}
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def repro(args: list[str], **env_overrides: str) -> int:
    return subprocess.call(_argv(args), env=_env(**env_overrides), cwd=ROOT)


def kill9_leg(tmp: Path) -> None:
    """SIGKILL a sweep mid-job: nothing it started may outlive it, and
    ``--resume`` finishes the campaign byte-identically."""
    out = tmp / "kill9.json"
    sweep = subprocess.Popen(
        _argv(["sweep", *KILL_CELLS, "--out", str(out)]), env=_env(), cwd=ROOT
    )
    # Workers are running once the resource tracker, the template and a
    # worker are up.
    deadline = time.monotonic() + 30.0
    while len(_descendants(sweep.pid)) < 3:
        assert sweep.poll() is None, "the sweep exited before it was killed"
        assert time.monotonic() < deadline, "the sweep never started workers"
        time.sleep(0.05)
    time.sleep(KILL_AFTER)
    tree = _descendants(sweep.pid)
    sweep.kill()
    sweep.wait(timeout=30)
    deadline = time.monotonic() + REAP_WITHIN
    while tree & _running_parents().keys():
        assert time.monotonic() < deadline, (
            f"processes {sorted(tree & _running_parents().keys())} outlived "
            f"the kill -9'd sweep by {REAP_WITHIN}s"
        )
        time.sleep(0.05)

    rc = repro(["sweep", "--resume", str(out) + ".d"])
    assert rc == 0, f"resume after kill -9 should exit 0, got {rc}"
    reference = tmp / "kill9-reference.json"
    rc = repro(["sweep", *KILL_CELLS, "--out", str(reference)])
    assert rc == 0, f"uninterrupted sweep should exit 0, got {rc}"
    merged = json.loads(out.read_text())["runs"]
    assert set(merged) == {"gauss/snuca", "gauss/tdnuca"}, merged.keys()
    # The orphaned workers checkpointed on their way out, and --resume
    # continues the long job from that snapshot rather than from task 0.
    assert merged["gauss/tdnuca"].pop("resumed_from_task", 0) > 0, (
        "--resume after kill -9 restarted gauss/tdnuca instead of "
        "continuing it from its snapshot"
    )
    merged["gauss/snuca"].pop("resumed_from_task", None)
    assert merged == json.loads(reference.read_text())["runs"], (
        "resumed-after-kill-9 runs diverge from an uninterrupted sweep"
    )


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sweep.json"
        run_dir = Path(tmp) / "sweep.d"
        sweep = [
            "sweep", "--scale", "2048",
            "--workloads", "md5", "knn", "--policies", "snuca", "tdnuca",
            "--jobs", "2", "--retries", "0",
            "--out", str(out), "--run-dir", str(run_dir),
        ]

        rc = repro(
            sweep, REPRO_FAILPOINTS=f"harness.worker.crash=*@job:{CRASH_JOB}"
        )
        assert rc == 1, f"faulted sweep should exit 1, got {rc}"

        first = json.loads(out.read_text())
        assert set(first["runs"]) == EXPECTED_RUNS - {CRASH_JOB}, first["runs"].keys()
        assert [f["error"] for f in first["failures"]] == ["WorkerCrash"]
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"][CRASH_JOB]["status"] == "failed"
        assert manifest["failures"][0]["error"] == "WorkerCrash"

        shard_mtimes = {
            p.name: p.stat().st_mtime_ns
            for p in (run_dir / "shards").glob("*.json")
        }

        rc = repro(["sweep", "--resume", str(run_dir)])
        assert rc == 0, f"resumed sweep should exit 0, got {rc}"

        merged = json.loads(out.read_text())
        assert set(merged["runs"]) == EXPECTED_RUNS, merged["runs"].keys()
        assert merged["failures"] == []
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert all(s["status"] == "ok" for s in manifest["status"].values())

        # the resume must not have re-run (re-written) the finished shards
        for name, mtime in shard_mtimes.items():
            if name != "md5__tdnuca__s0.json":
                now = (run_dir / "shards" / name).stat().st_mtime_ns
                assert now == mtime, f"finished shard {name} was re-run"

        big = Path(tmp) / "big.json"
        workload, policy = BIG_RESULT_JOB.split("/")
        rc = repro([
            "sweep", "--scale", "1024", "--workloads", workload,
            "--policies", policy, "--timeout", "60", "--retries", "0",
            "--out", str(big),
        ])
        assert rc == 0, f"large-result sweep should exit 0, got {rc}"
        result = json.loads(big.read_text())
        assert set(result["runs"]) == {BIG_RESULT_JOB}, result["runs"].keys()
        assert result["failures"] == []

        kill9_leg(Path(tmp))

    print("sweep smoke ok: crash archived, resume completed the campaign, "
          "large result received, kill -9 left no process behind")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
