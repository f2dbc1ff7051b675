#!/usr/bin/env python
"""CI smoke test for graceful preemption and byte-identical resume.

End-to-end through the real CLI:

1. Run an uninterrupted reference sweep and keep its merged JSON.
2. Start the same sweep fresh, SIGTERM it mid-flight (the
   ``harness.worker.slow`` failpoint holds workers long enough for the
   signal to land), and require exit code 75 (``EX_TEMPFAIL``) with a
   ``sweep_status: "interrupted"`` manifest, and no process of the
   sweep's own tree (template, workers, resource tracker) outliving it.
3. Resume the sweep and assert the merged JSON equals the uninterrupted
   reference — byte-identical statistics, with only the
   ``resumed_from_task`` markers as the permitted difference.

Usage: ``PYTHONPATH=src python scripts/preempt_smoke.py``
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from service_smoke import _descendants, _running_parents

ROOT = Path(__file__).resolve().parents[1]
EXPECTED_RUNS = {"md5/snuca", "md5/tdnuca", "knn/snuca", "knn/tdnuca"}
EXIT_PREEMPTED = 75
SIGTERM_AFTER = 3.0  # seconds: past worker start, inside the SLOW hold
DRAIN_TIMEOUT = 60.0


def _env(**overrides: str) -> dict[str, str]:
    env = {**os.environ, **overrides}
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _sweep_args(out: Path, run_dir: Path) -> list[str]:
    return [
        sys.executable, "-m", "repro",
        "sweep", "--scale", "2048",
        "--workloads", "md5", "knn", "--policies", "snuca", "tdnuca",
        "--jobs", "2", "--retries", "0",
        "--out", str(out), "--run-dir", str(run_dir),
    ]


def _strip_resume_markers(doc: dict) -> dict:
    for run in doc.get("runs", {}).values():
        run.pop("resumed_from_task", None)
    return doc


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        ref_out = Path(tmp) / "ref.json"
        out = Path(tmp) / "sweep.json"
        run_dir = Path(tmp) / "sweep.d"

        # 1. Uninterrupted reference.
        rc = subprocess.call(
            _sweep_args(ref_out, Path(tmp) / "ref.d"), env=_env(), cwd=ROOT
        )
        assert rc == 0, f"reference sweep should exit 0, got {rc}"
        reference = _strip_resume_markers(json.loads(ref_out.read_text()))

        # 2. Same sweep, SIGTERMed mid-flight.
        proc = subprocess.Popen(
            _sweep_args(out, run_dir),
            env=_env(REPRO_FAILPOINTS="harness.worker.slow=*@param:8"),
            cwd=ROOT,
        )
        time.sleep(SIGTERM_AFTER)
        tree = _descendants(proc.pid)
        assert tree, "a mid-flight sweep should have worker processes"
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=DRAIN_TIMEOUT)
        assert rc == EXIT_PREEMPTED, (
            f"preempted sweep should exit {EXIT_PREEMPTED}, got {rc}"
        )

        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["sweep_status"] == "interrupted", manifest
        preempted = [
            key for key, rec in manifest.get("status", {}).items()
            if rec["status"] == "preempted"
        ]
        for key in preempted:
            rec = manifest["status"][key]
            snap = Path(rec["snapshot"])
            assert snap.exists(), f"{key}: snapshot {snap} missing"
            assert rec["tasks_done"] > 0, rec
        # The drain joined every worker: no process of the sweep's tree
        # survives it (other processes on the host are not its business).
        alive = sorted(tree & _running_parents().keys())
        assert not alive, f"orphaned sweep processes survive: {alive}"

        # 3. Resume and compare against the uninterrupted reference.
        rc = subprocess.call(
            [sys.executable, "-m", "repro", "sweep", "--resume", str(run_dir)],
            env=_env(), cwd=ROOT,
        )
        assert rc == 0, f"resumed sweep should exit 0, got {rc}"
        merged = json.loads(out.read_text())
        assert set(merged["runs"]) == EXPECTED_RUNS, merged["runs"].keys()
        assert merged["failures"] == []
        resumed_markers = {
            key: run.get("resumed_from_task")
            for key, run in merged["runs"].items()
            if "resumed_from_task" in run
        }
        assert set(resumed_markers) == set(preempted), (
            f"resume markers {resumed_markers} != preempted jobs {preempted}"
        )
        merged = _strip_resume_markers(merged)
        diffs = [
            key for key in EXPECTED_RUNS
            if merged["runs"][key] != reference["runs"][key]
        ]
        assert not diffs, f"resumed results diverge from reference: {diffs}"

    print(
        "preempt smoke ok: SIGTERM checkpointed "
        f"{len(preempted)} job(s), resume merged byte-identically"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
