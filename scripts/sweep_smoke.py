#!/usr/bin/env python
"""CI smoke test for the crash-tolerant sweep harness.

Runs a 2-workload parallel sweep through the real CLI with one injected
worker crash (the ``REPRO_HARNESS_CRASH`` chaos hook), verifies the sweep
degrades gracefully (remaining jobs complete, failure archived in the
manifest and the merged JSON), then resumes it and asserts the merged
output is complete, failure-free, and that already-finished shards were
not re-run.  A last isolated sweep runs one cell whose pickled result is
larger than a pipe's 64 KiB buffer under ``--timeout``, so a parent that
stops draining its workers' result pipes fails fast instead of hanging.

Usage: ``PYTHONPATH=src python scripts/sweep_smoke.py``
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CRASH_JOB = "md5/tdnuca"
EXPECTED_RUNS = {"md5/snuca", "md5/tdnuca", "knn/snuca", "knn/tdnuca"}
#: ~100 KB pickled at 1/1024, mostly its dependency categories.
BIG_RESULT_JOB = "histo/tdnuca"


def repro(args: list[str], **env_overrides: str) -> int:
    env = {**os.environ, **env_overrides}
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.call(
        [sys.executable, "-m", "repro", *args], env=env, cwd=ROOT
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

        rc = repro(sweep, REPRO_HARNESS_CRASH=CRASH_JOB)
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

    print("sweep smoke ok: crash archived, resume completed the campaign, "
          "large result received")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
