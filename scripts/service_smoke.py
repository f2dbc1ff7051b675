#!/usr/bin/env python
"""CI chaos smoke for the simulation service.

Drives the real ``repro serve`` process over HTTP and asserts the
resilience contract end-to-end:

1. A duplicate submit is answered from the content-addressed cache —
   zero new simulations, result byte-identical to a direct
   ``repro run --json`` reference.
2. SIGTERM mid-job drains to a spool snapshot and exits 75
   (``EX_TEMPFAIL``); ``kill -9`` mid-job loses nothing the periodic
   checkpointer already wrote, and leaves no worker or fork template
   running behind the dead server.  A restarted server on the same
   cache/spool directories resumes and the final statistics are
   byte-identical to the uninterrupted reference.
3. A bit-flipped cache entry is quarantined to ``<name>.corrupt`` and
   transparently recomputed, not served.
4. Failpoint chaos against the worker pool: ``REPRO_FAILPOINTS`` SIGKILLs
   the worker mid-job and the supervisor requeues it to a byte-identical
   finish; an always-crashing job is quarantined as poison (with a
   diagnostic bundle in ``spool/poison/``) while a concurrent healthy job
   completes and the server keeps serving.
5. ``/v1/health`` exposes the worker-pool gauges and ``repro serve``
   prints the ``drained:`` summary line on shutdown.

Usage: ``PYTHONPATH=src python scripts/service_smoke.py``
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

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.scenario import MachineSpec, Scenario  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.envelope import ServiceError  # noqa: E402

EXIT_DRAINED = 75
SPEC = {"workload": "md5", "policy": "tdnuca", "scale": 2048}
START_TIMEOUT = 30.0
KILL_AFTER = 2.0  # seconds into the SLOW hold: server is mid-attempt


def _scenario(workload: str, policy: str, scale: int) -> Scenario:
    """The run scenario a ``/v1/run`` submission carries."""
    return Scenario(f"{workload}-{policy}", workload=workload, policy=policy,
                    machine=MachineSpec(scale=scale))


def _env(**overrides: str) -> dict[str, str]:
    env = {**os.environ, **overrides}
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _start_server(
    tmp: Path, *extra_args: str, workers: int = 1, **env_overrides: str
) -> tuple[subprocess.Popen, ServiceClient]:
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--workers", str(workers),
            "--cache-dir", str(tmp / "cache"),
            "--spool-dir", str(tmp / "spool"),
            "--checkpoint-every", "40",
            "--drain-grace", "20",
            *extra_args,
        ],
        env=_env(**env_overrides), cwd=ROOT,
        stdout=subprocess.PIPE, text=True,
    )
    deadline = time.monotonic() + START_TIMEOUT
    line = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if line.startswith("listening on "):
            break
    assert line.startswith("listening on "), f"server never came up: {line!r}"
    host, _, port = line.split()[-1].rpartition(":")
    client = ServiceClient(host, int(port), retries=6, backoff=0.1)
    return proc, client


def _stop(proc: subprocess.Popen) -> tuple[int, str]:
    """SIGTERM the server; return (exit code, remaining stdout)."""
    proc.send_signal(signal.SIGTERM)
    tail, _ = proc.communicate(timeout=60)
    return proc.returncode, tail or ""


def _running_parents() -> dict[int, int]:
    """pid -> parent pid of every running (not zombie) process, from /proc."""
    parent_of = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if stat[0] not in ("Z", "X"):
            parent_of[int(entry.name)] = int(stat[1])
    return parent_of


def _descendants(pid: int) -> set[int]:
    parent_of = _running_parents()
    found: set[int] = set()
    frontier = {pid}
    while frontier:
        frontier = {c for c, p in parent_of.items() if p in frontier} - found
        found |= frontier
    return found


def _wait_for_snapshot(spool: Path, timeout: float = 15.0) -> list[Path]:
    """Poll for a spool snapshot: the worker outlives a SIGKILLed server
    briefly (PDEATHSIG -> snapshot at the next task boundary), so the
    file can land a moment after the server dies."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        snaps = list(spool.glob("*.snap"))
        if snaps:
            return snaps
        time.sleep(0.1)
    return []


def _submit_and_wait(client: ServiceClient) -> tuple[dict, dict]:
    job = client.submit_scenario(_scenario(**SPEC))
    done = client.wait(job["id"], timeout=120)
    result = client.result(job["id"])["result"]
    return done, result


def main() -> int:
    # Uninterrupted reference through the plain CLI.
    out = subprocess.run(
        [sys.executable, "-m", "repro", "run", "md5", "tdnuca",
         "--scale", "2048", "--json"],
        env=_env(), cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    reference = json.loads(out)

    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)

        # ------------------------------------------------- cache hits
        proc, client = _start_server(tmp)
        try:
            first, result = _submit_and_wait(client)
            assert result == reference, "service result diverges from CLI run"
            assert first["simulated"] == 1, first

            second, dup = _submit_and_wait(client)
            assert dup == reference
            assert second["simulated"] == 0, second
            assert second["cache_hits"] == 1, second
            health = client.health()
            assert health["queue"]["simulations_run"] == 1, (
                "duplicate submit must do zero new simulation work: "
                f"{health['queue']}"
            )
            # Worker-pool gauges ride along on /v1/health.
            pool = health["queue"]["pool"]
            assert pool["alive"] == 0 and pool["busy"] == 0, pool
            assert pool["configured"] == 1 and pool["concurrency"] == 1, pool
            assert pool["spawned"] == 1 and pool["completions"] == 1, pool
            assert pool["deaths"] == 0 and pool["restarts"] == 0, pool
            assert health["queue"]["poisoned"] == 0, health["queue"]
        finally:
            rc, tail = _stop(proc)
        assert rc == EXIT_DRAINED, f"SIGTERM drain should exit 75, got {rc}"
        assert "drained:" in tail and "worker_deaths=0" in tail, (
            f"serve should log pool gauges on drain, got: {tail!r}"
        )

        # -------------------------------- SIGTERM drains to a snapshot
        proc, client = _start_server(
            tmp, REPRO_FAILPOINTS="queue.attempt.slow=*@param:1.5"
        )
        client.submit_scenario(_scenario("lu", "tdnuca", 512))
        time.sleep(KILL_AFTER)
        rc, _ = _stop(proc)
        assert rc == EXIT_DRAINED, f"drain mid-job should exit 75, got {rc}"
        snaps = _wait_for_snapshot(tmp / "spool")
        assert len(snaps) == 1, f"drain should leave one snapshot: {snaps}"

        # Restart and resubmit: the job resumes from the drain snapshot
        # and lands byte-identical to an uninterrupted CLI run.
        lu_clean = json.loads(subprocess.run(
            [sys.executable, "-m", "repro", "run", "lu", "tdnuca",
             "--scale", "512", "--json"],
            env=_env(), cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout)
        proc, client = _start_server(tmp)
        try:
            rejob = client.submit_scenario(_scenario("lu", "tdnuca", 512))
            redone = client.wait(rejob["id"], timeout=120)
            assert redone["resumed_from_task"], (
                f"restarted job should resume from the snapshot: {redone}"
            )
            reresult = client.result(rejob["id"])["result"]
            assert reresult == lu_clean, (
                "resumed-after-drain result diverges from a clean run"
            )
            assert not list((tmp / "spool").glob("*.snap")), (
                "snapshot must be consumed after successful resume"
            )
        finally:
            rc, _ = _stop(proc)
        assert rc == EXIT_DRAINED, f"post-resume drain should exit 75, got {rc}"

        # ------------------------- kill -9, restart, resume from spool
        # A fresh cell (scale 128: not cached, no snapshot, ~6 s of work)
        # so the periodic checkpointer — not the drain — is what survives
        # the SIGKILL.
        proc, client = _start_server(
            tmp, REPRO_FAILPOINTS="queue.attempt.slow=*@param:0.5"
        )
        client.submit_scenario(_scenario("lu", "tdnuca", 128))
        time.sleep(KILL_AFTER)
        orphans = _descendants(proc.pid)
        assert orphans, "a mid-job server should have a worker process"
        proc.kill()  # SIGKILL: no drain, no goodbye
        proc.wait(timeout=30)
        proc.stdout.close()
        assert _wait_for_snapshot(tmp / "spool"), (
            "kill -9 mid-job should leave a checkpoint behind (periodic, "
            "or the orphaned worker's PDEATHSIG snapshot)"
        )
        deadline = time.monotonic() + 15.0
        while orphans & _running_parents().keys():
            assert time.monotonic() < deadline, (
                "worker or template processes outlived the kill -9'd server"
            )
            time.sleep(0.1)

        proc, client = _start_server(tmp)
        try:
            done, resumed = _submit_and_wait(client)  # md5: still cached
            assert done["cache_hits"] == 1 and resumed == reference

            rejob = client.submit_scenario(_scenario("lu", "tdnuca", 128))
            redone = client.wait(rejob["id"], timeout=120)
            reresult = client.result(rejob["id"])["result"]
            assert redone["resumed_from_task"], (
                f"job resubmitted after kill -9 should resume: {redone}"
            )
            lu_128 = json.loads(subprocess.run(
                [sys.executable, "-m", "repro", "run", "lu", "tdnuca",
                 "--scale", "128", "--json"],
                env=_env(), cwd=ROOT, capture_output=True, text=True,
                check=True,
            ).stdout)
            assert reresult == lu_128, (
                "resumed-after-kill-9 result diverges from a clean run"
            )
            assert not list((tmp / "spool").glob("*.snap")), (
                "snapshot must be consumed after successful resume"
            )

            # -------------------- corruption: quarantine and recompute
            # Flip one bit in one cache entry, then resubmit both cells.
            # Whichever entry was hit must be recomputed (not served),
            # quarantined to .corrupt, and the result must still match.
            entries = sorted((tmp / "cache").glob("*.rcache"))
            assert entries, "cache should hold entries by now"
            victim = entries[0]
            blob = bytearray(victim.read_bytes())
            blob[len(blob) // 2] ^= 0xFF
            victim.write_bytes(bytes(blob))

            before = client.health()["queue"]["simulations_run"]
            _, healed = _submit_and_wait(client)
            fresh_lu = client.submit_scenario(_scenario("lu", "tdnuca", 512))
            client.wait(fresh_lu["id"], timeout=120)
            after = client.health()
            assert after["queue"]["simulations_run"] == before + 1, (
                "exactly the corrupted cell must be recomputed"
            )
            assert after["cache"]["corrupt"] >= 1, after["cache"]
            assert list((tmp / "cache").glob("*.corrupt")), (
                "corrupt entry should be quarantined, not deleted"
            )
            assert healed == reference
        finally:
            rc, _ = _stop(proc)
        assert rc == EXIT_DRAINED, f"final drain should exit 75, got {rc}"

        # ------------- failpoint chaos: worker SIGKILLed mid-job by the
        # registry (not the OS), requeued, byte-identical finish.  Fresh
        # directories so nothing is answered from the earlier cache.
        chaos = tmp / "chaos"
        (chaos / "cache").mkdir(parents=True)
        (chaos / "spool").mkdir(parents=True)
        proc, client = _start_server(
            chaos, "--retries", "1",
            REPRO_FAILPOINTS="worker.crash=*@attempt:1@task_ge:50@job:lu/tdnuca",
        )
        try:
            job = client.submit_scenario(_scenario("lu", "tdnuca", 512))
            done = client.wait(job["id"], timeout=180)
            result = client.result(job["id"])["result"]
            assert done["resumed_from_task"], (
                f"crashed job should resume from its checkpoint: {done}"
            )
            assert result == lu_clean, (
                "kill -9'd-by-failpoint job diverges from a clean run"
            )
            health = client.health()
            pool = health["queue"]["pool"]
            assert health["queue"]["worker_deaths"] == 1, health["queue"]
            assert pool["deaths"] == 1 and pool["restarts"] == 1, pool
        finally:
            rc, tail = _stop(proc)
        assert rc == EXIT_DRAINED
        assert "worker_deaths=1" in tail and "restarts=1" in tail, tail

        # ------------- poison quarantine: an always-crashing job is
        # benched with a diagnostic bundle while a healthy concurrent job
        # completes and the server keeps serving.
        jacobi_clean = json.loads(subprocess.run(
            [sys.executable, "-m", "repro", "run", "jacobi", "tdnuca",
             "--scale", "512", "--json"],
            env=_env(), cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout)
        poison_dir = tmp / "poison-phase"
        (poison_dir / "cache").mkdir(parents=True)
        (poison_dir / "spool").mkdir(parents=True)
        proc, client = _start_server(
            poison_dir, "--retries", "5", "--poison-after", "3",
            workers=2,
            REPRO_FAILPOINTS="worker.crash=*@job:histo/tdnuca@task_ge:10",
        )
        try:
            doomed = client.submit_scenario(
                _scenario("histo", "tdnuca", 512)
            )
            healthy = client.submit_scenario(
                _scenario("jacobi", "tdnuca", 512)
            )
            try:
                client.wait(doomed["id"], timeout=180)
                raise AssertionError("3x-crashing job should be poisoned")
            except ServiceError as err:
                assert err.type == "poisoned", err
            bundles = list((poison_dir / "spool" / "poison").glob("*.json"))
            assert bundles, "poison quarantine should write a bundle"
            bundle = json.loads(bundles[0].read_text())
            assert bundle["worker_deaths"] == 3, bundle
            assert bundle["last_death"]["signal"] == 9, bundle

            # Still serving: the healthy job lands byte-identical, and
            # the poisoned spec is rejected on resubmission.
            hdone = client.wait(healthy["id"], timeout=180)
            assert hdone["state"] == "done", hdone
            hresult = client.result(healthy["id"])["result"]
            assert hresult == jacobi_clean, (
                "healthy job diverged while sharing the pool with poison"
            )
            try:
                client.submit_scenario(_scenario("histo", "tdnuca", 512))
                raise AssertionError("poisoned spec must not be re-admitted")
            except ServiceError as err:
                assert err.type == "poisoned", err
            health = client.health()
            assert health["queue"]["poisoned"] == 1, health["queue"]
            assert health["queue"]["worker_deaths"] == 3, health["queue"]
        finally:
            rc, tail = _stop(proc)
        assert rc == EXIT_DRAINED
        assert "poisoned=1" in tail, tail

    print(
        "service smoke ok: duplicate submit hit the cache, SIGTERM drained "
        "to a snapshot (exit 75), kill -9 resumed byte-identically, corrupt "
        "entry quarantined and recomputed, failpoint-crashed worker requeued "
        "to a byte-identical finish, poison job quarantined with bundle "
        "while the pool kept serving"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
