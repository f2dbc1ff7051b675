#!/usr/bin/env python
"""CI chaos smoke for fleet mode: N servers over one shared directory.

Drives real ``repro serve --fleet-dir`` processes over HTTP and asserts
the multi-host resilience contract end-to-end:

1. Three servers join one fleet dir; ``repro fleet status`` sees all
   three host leases from the filesystem alone.
2. ``kill -9`` of the host that owns an in-flight job: a survivor
   detects the dead lease, reclaims the claim with a fenced epoch bump,
   adopts the job as a ghost and resumes it from the shared spool
   snapshot — final statistics byte-identical to an uninterrupted
   ``repro run --json`` reference.
3. A duplicate submit to a *different* host is answered from the shared
   result store — zero new simulations, fleet-tier hit counted.
4. Lease-skew fencing: ``fleet.lease.skew`` stalls a host's heartbeats
   so its peers declare it dead and re-run its job, while its own worker
   keeps computing.  The stale owner's publish is fenced — it never
   lands in the shared store — and exactly one valid entry exists.
5. SIGTERM drains every host cleanly (exit 75): host leases and claim
   files are gone, and the ``drained:`` line carries the fleet gauges.

Usage: ``PYTHONPATH=src python scripts/fleet_smoke.py``
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

from repro.service.client import ServiceClient  # noqa: E402

EXIT_DRAINED = 75
START_TIMEOUT = 30.0
KILL_AFTER = 2.0  # seconds into the SLOW hold: victim is mid-attempt
LU_SPEC = {"workload": "lu", "policy": "tdnuca", "scale": 128}
MD5_SPEC = {"workload": "md5", "policy": "tdnuca", "scale": 2048}


def _env(**overrides: str) -> dict[str, str]:
    env = {**os.environ, **overrides}
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _reference(spec: dict) -> dict:
    out = subprocess.run(
        [sys.executable, "-m", "repro", "run", spec["workload"],
         spec["policy"], "--scale", str(spec["scale"]), "--json"],
        env=_env(), cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


def _start_host(
    fleet_dir: Path,
    cache_dir: Path,
    host_id: str,
    *extra_args: str,
    lease_timeout: float = 2.0,
    **env_overrides: str,
) -> tuple[subprocess.Popen, ServiceClient]:
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--workers", "1",
            "--cache-dir", str(cache_dir),
            "--fleet-dir", str(fleet_dir),
            "--host-id", host_id,
            "--host-lease-timeout", str(lease_timeout),
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
    assert line.startswith("listening on "), (
        f"{host_id} never came up: {line!r}"
    )
    host, _, port = line.split()[-1].rpartition(":")
    client = ServiceClient(host, int(port), retries=8, backoff=0.2)
    return proc, client


def _stop(proc: subprocess.Popen) -> tuple[int, str]:
    proc.send_signal(signal.SIGTERM)
    tail, _ = proc.communicate(timeout=60)
    return proc.returncode, tail or ""


def _poll(what: str, predicate, timeout: float = 45.0, every: float = 0.25):
    """Poll ``predicate`` until it returns a truthy value; assert on
    timeout.  Transient connection errors (a host mid-stall) retry."""
    deadline = time.monotonic() + timeout
    last_exc: Exception | None = None
    while time.monotonic() < deadline:
        try:
            value = predicate()
        except Exception as exc:  # noqa: BLE001 - poll through stalls
            last_exc = exc
            value = None
        if value:
            return value
        time.sleep(every)
    raise AssertionError(f"timed out waiting for {what} (last: {last_exc})")


def _fleet_gauges(client: ServiceClient) -> dict:
    return client.health()["fleet"]


def _phase_reclaim(tmp: Path, lu_ref: dict, md5_ref: dict) -> None:
    """kill -9 the claim owner; a survivor resumes byte-identically."""
    fleet = tmp / "fleet1"
    proc_a, client_a = _start_host(
        fleet, tmp / "cache-a", "host-a",
        REPRO_FAILPOINTS="queue.attempt.slow=*@param:0.5",
    )
    proc_b, client_b = _start_host(fleet, tmp / "cache-b", "host-b")
    proc_c, client_c = _start_host(fleet, tmp / "cache-c", "host-c")
    survivors = {"host-b": client_b, "host-c": client_c}
    try:
        # The offline inspector sees all three leases before any traffic.
        status = json.loads(subprocess.run(
            [sys.executable, "-m", "repro", "fleet", "status",
             str(fleet), "--json"],
            env=_env(), cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout)
        seen = {h["host_id"] for h in status["hosts"]}
        assert seen == {"host-a", "host-b", "host-c"}, seen

        client_a.submit_run(**LU_SPEC)
        time.sleep(KILL_AFTER)
        proc_a.kill()  # SIGKILL: no drain, no lease cleanup, no goodbye
        proc_a.wait(timeout=30)
        proc_a.stdout.close()

        # Exactly one survivor reclaims the orphaned claim.
        _poll(
            "a survivor to reclaim the dead host's claim",
            lambda: sum(
                _fleet_gauges(c)["reclaims"] for c in survivors.values()
            ) == 1,
        )
        adopter = next(
            name for name, c in survivors.items()
            if _fleet_gauges(c)["reclaims"] == 1
        )
        ghost = _poll(
            "the adopted ghost job to finish",
            lambda: next(
                (g for g in survivors[adopter].health()["queue"]["ghost_jobs"]
                 if g["state"] == "done"),
                None,
            ),
            timeout=90.0,
        )
        assert ghost["origin"] == "reclaim", ghost
        assert ghost["resumed_from_task"], (
            f"ghost should resume from the shared spool snapshot: {ghost}"
        )
        health = survivors[adopter].health()
        assert health["queue"]["adopted"] == 1, health["queue"]
        assert health["fleet"]["claims_won"] >= 1, health["fleet"]

        # Resubmitting the dead host's job to the OTHER survivor answers
        # from the shared store: zero recompute, byte-identical result.
        other = next(n for n in survivors if n != adopter)
        job = survivors[other].submit_run(**LU_SPEC)
        done = survivors[other].wait(job["id"], timeout=120)
        assert done["simulated"] == 0, done
        assert done["cache_hits"] == 1, done
        result = survivors[other].result(job["id"])["result"]
        assert result == lu_ref, (
            "reclaimed-and-resumed result diverges from a clean run"
        )
        assert survivors[other].health()["cache"]["fleet_hits"] >= 1, (
            survivors[other].health()["cache"]
        )
        assert not list((fleet / "spool").glob("*.snap")), (
            "shared snapshot must be consumed after the ghost resumed"
        )

        # Duplicate submit across hosts: B computes, C dedupes.
        job_b = client_b.submit_run(**MD5_SPEC)
        done_b = client_b.wait(job_b["id"], timeout=120)
        assert done_b["simulated"] == 1, done_b
        assert client_b.result(job_b["id"])["result"] == md5_ref
        job_c = client_c.submit_run(**MD5_SPEC)
        done_c = client_c.wait(job_c["id"], timeout=120)
        assert done_c["simulated"] == 0, (
            f"duplicate submit must be a shared-store hit: {done_c}"
        )
        assert client_c.result(job_c["id"])["result"] == md5_ref

        # The human-readable inspector still renders mid-flight state.
        human = subprocess.run(
            [sys.executable, "-m", "repro", "fleet", "status", str(fleet)],
            env=_env(), cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout
        assert "hosts (" in human and "shared store:" in human, human
    finally:
        rc_b, tail_b = _stop(proc_b)
        rc_c, tail_c = _stop(proc_c)
    assert rc_b == EXIT_DRAINED and rc_c == EXIT_DRAINED, (rc_b, rc_c)
    for tail in (tail_b, tail_c):
        assert "drained:" in tail and "reclaims=" in tail, tail
    assert "reclaims=1" in tail_b + tail_c, (tail_b, tail_c)
    # Clean drain: the drained hosts removed their leases (the SIGKILLed
    # host's stale lease remains as post-mortem debris — that is what
    # peers detected as dead), no claim files (epoch markers are
    # historical debris and may remain), no queued work left behind.
    leases = {p.stem for p in (fleet / "hosts").glob("*.json")}
    assert leases <= {"host-a"}, (
        f"drained hosts must remove their leases: {leases}"
    )
    assert not list((fleet / "claims").glob("*.json")), (
        "all claims must be settled after the fleet drains"
    )
    assert sum(
        1 for shard in (fleet / "queue").iterdir() if shard.is_dir()
        for _ in shard.glob("*.json")
    ) == 0, "no queued entries may survive the drain"


def _phase_fence(tmp: Path, lu_ref: dict) -> None:
    """A stalled-but-alive owner is fenced out of the shared store."""
    fleet = tmp / "fleet2"
    # host-d: heartbeats stall for 12 s after the 4th tick (the claim is
    # acquired well before), while its worker holds the attempt 5 s and
    # then computes — so peers declare it dead and re-run the job while
    # the stale owner's child is still going.
    proc_d, client_d = _start_host(
        fleet, tmp / "cache-d", "host-d",
        lease_timeout=1.0,
        REPRO_FAILPOINTS=(
            "fleet.lease.skew=1@after:4@param:12;queue.attempt.slow=*@param:5"
        ),
    )
    proc_e, client_e = _start_host(
        fleet, tmp / "cache-e", "host-e", lease_timeout=1.0,
    )
    try:
        client_d.submit_run(**LU_SPEC)
        # host-e declares host-d dead after ~2 s of observed heartbeat
        # silence and reclaims; its ghost re-runs the job from scratch
        # (or from host-d's periodic checkpoint — identical either way).
        _poll(
            "host-e to reclaim the stalled host's claim",
            lambda: _fleet_gauges(client_e)["reclaims"] == 1,
        )
        ghost = _poll(
            "host-e's ghost job to finish",
            lambda: next(
                (g for g in client_e.health()["queue"]["ghost_jobs"]
                 if g["state"] == "done"),
                None,
            ),
            timeout=90.0,
        )
        assert ghost["origin"] == "reclaim", ghost

        # The stale owner's publish is fenced: its child finishes, checks
        # the claim, finds itself superseded, and never touches the store.
        _poll(
            "host-d to observe its fenced write",
            lambda: _fleet_gauges(client_d)["fenced_writes"] >= 1,
            timeout=60.0,
        )
        entries = list((fleet / "results").glob("*.rcache"))
        assert len(entries) == 1, (
            f"exactly one shared-store entry must exist: {entries}"
        )
        # ... and the surviving entry is the valid, canonical result.
        job = client_e.submit_run(**LU_SPEC)
        done = client_e.wait(job["id"], timeout=120)
        assert done["simulated"] == 0, done
        assert client_e.result(job["id"])["result"] == lu_ref, (
            "post-fence shared-store entry diverges from a clean run"
        )
    finally:
        rc_d, tail_d = _stop(proc_d)
        rc_e, tail_e = _stop(proc_e)
    assert rc_d == EXIT_DRAINED and rc_e == EXIT_DRAINED, (rc_d, rc_e)
    assert "fenced=" in tail_d and "drained:" in tail_d, tail_d
    assert "reclaims=1" in tail_e, tail_e
    assert not list((fleet / "hosts").glob("*.json"))
    assert not list((fleet / "claims").glob("*.json"))


def main() -> int:
    lu_ref = _reference(LU_SPEC)
    md5_ref = _reference(MD5_SPEC)
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        _phase_reclaim(tmp, lu_ref, md5_ref)
        _phase_fence(tmp, lu_ref)
    print(
        "fleet smoke ok: kill -9'd owner's job reclaimed and resumed "
        "byte-identically from the shared spool, duplicate submit to a "
        "peer answered from the shared store with zero recompute, stalled "
        "owner fenced out of the store (one valid entry), all hosts "
        "drained cleanly (exit 75) leaving no leases or claims"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
