"""Supervised multi-process worker pool: crash isolation + heartbeat leases.

The PR-6 queue executed every simulation on a ``ThreadPoolExecutor``
inside the server process, so one segfaulting, OOM-ing, or runaway job
took the whole service down with it.  This module moves each job attempt
into a **process-isolated child** supervised from the (still
thread-based) attempt slot.  The launch, the child entry and the
supervisor are the attempt path of :mod:`repro.template`, which the
sweep harness runs too; this module adds what only the service needs:

* **Process-per-attempt** — a fresh child per attempt, forked from the
  pre-imported template: the child inherits no locks, no server heap and
  no earlier job's state, yet skips the interpreter start and ``repro``
  import a cold start would pay on every attempt.  A crash costs exactly
  one attempt.  The child body (:func:`_run_cells`) streams progress
  (``cell_done`` / ``event`` / ``snapshot_discarded`` /
  ``fleet_fenced``) ahead of the shared terminal verdict and writes
  results/snapshots to the shared cache/spool directories — both atomic,
  so a child dying mid-write leaves either the old bytes or the new
  bytes, never a torn file the parent would trust.
* **Heartbeat lease** — the child stamps a shared array at every
  dispatch boundary and every cell.  The supervisor kills any child
  silent past ``lease_timeout``: a hung worker is indistinguishable from
  a dead one, and both become a :class:`WorkerDied` the queue requeues
  under its retry budget.  Lease age is judged on ``time.monotonic()``
  deltas (parent and child share one host, so one monotonic clock) — an
  NTP step can slew the wall clock by minutes without making a healthy
  worker look dead; the wall-clock stamp rides along for diagnostics only.
  Byte-identical resume comes for free: the retry attempt resumes from
  the dead worker's last periodic snapshot in the spool (the PR-5
  replay-journal guarantee).
* **Budget** — at the attempt's budget the supervisor asks the child to
  checkpoint and stop; :data:`HARD_TIMEOUT_GRACE` later it kills it.
* **Memory rlimit** — ``mem_limit_mb`` applies ``RLIMIT_AS`` in the
  child, so a leaking simulation gets ``MemoryError`` (a classified,
  retryable failure) instead of inviting the host OOM killer to shoot
  the server.
* **Orphan reaping** — the child's prologue
  (:func:`repro.template.attempt_prologue`) arms ``PR_SET_PDEATHSIG``
  against the template, which exits as soon as the server does, so
  ``kill -9`` of the server stops its children at the next task boundary
  instead of leaving orphans racing the restarted server for the spool.
  A drain that leaves no attempt alive stops the template.

The queue layers poison quarantine and graceful concurrency degradation
on top (see :mod:`repro.service.queue`); failure *injection* for all of
it lives in :mod:`repro.failpoints` (sites ``worker.crash``,
``worker.hang``, ``worker.oom``, ``worker.start.crash`` fire inside the
child at deterministic task boundaries).
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Any, Callable

from repro import template
from repro.snapshot import PreemptedError
from repro.template import AttemptHandle, WorkerDied

__all__ = [
    "HARD_TIMEOUT_GRACE",
    "WorkerDied",
    "WorkerJobError",
    "AttemptHandle",
    "WorkerPool",
]

#: extra seconds past a job's graceful budget before the supervisor stops
#: waiting for a checkpoint and kills the (presumed wedged) worker.
HARD_TIMEOUT_GRACE = 30.0

#: how long a worker may go without a heartbeat before its lease expires.
DEFAULT_LEASE_TIMEOUT = 30.0


class WorkerJobError(Exception):
    """The job itself failed inside the worker (the worker survived).

    Re-raised in the supervisor with the child-side exception's name and
    permanence classification attached, so the queue's retry logic treats
    it exactly as it treated in-process exceptions.
    """

    def __init__(self, error_name: str, message: str, permanent: bool) -> None:
        super().__init__(message)
        self.error_name = error_name
        self.permanent = permanent


class WorkerPool:
    """Launches, supervises, and accounts for per-attempt worker processes.

    Not a pool of long-lived processes: isolation is the point, so every
    attempt gets a fresh child, forked from the pre-imported template.
    What is pooled is the *accounting*: death/restart counters and the
    adaptive :attr:`concurrency` the queue's worker loops respect.
    """

    def __init__(
        self,
        workers: int,
        *,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        mem_limit_mb: int | None = None,
        spool: str | Path,
        cache_dir: str | Path | None = None,
        checkpoint_every: int = 0,
        degrade_after: int = 2,
        degrade_window: float = 60.0,
        fleet_dir: str | Path | None = None,
        fleet_host: str | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        if mem_limit_mb is not None and mem_limit_mb < 1:
            raise ValueError("mem_limit_mb must be >= 1")
        self.workers = workers
        self.lease_timeout = lease_timeout
        self.mem_limit_mb = mem_limit_mb
        self.spool = str(spool)
        self.cache_dir = None if cache_dir is None else str(cache_dir)
        self.checkpoint_every = checkpoint_every
        self.degrade_after = degrade_after
        self.degrade_window = degrade_window
        self.fleet_dir = None if fleet_dir is None else str(fleet_dir)
        self.fleet_host = fleet_host
        #: wired to FleetNode.note_fenced by the server in fleet mode, so
        #: a child's fence loss shows up in the /v1/health gauges.
        self.on_fenced: Callable[[], None] | None = None
        #: current admission width; sheds toward 1 under repeated worker
        #: deaths, recovers toward ``workers`` on healthy completions.
        self.concurrency = workers
        self.spawned = 0
        self.deaths = 0
        self.restarts = 0
        self.lease_expired = 0
        self.completions = 0
        self._death_times: list[float] = []
        self._attempts: dict[str, AttemptHandle] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # supervision (runs in the queue's attempt-slot thread, blocking)
    # ------------------------------------------------------------------

    def run_attempt(
        self,
        job: Any,
        budget: float | None,
        on_simulated: Callable[[], None] | None = None,
    ) -> None:
        """Run one attempt of ``job`` in a fresh child; block until settled.

        Mirrors the old in-thread attempt's contract: returns on success
        (``job.partial``/counters updated from ``cell_done`` messages),
        raises :class:`PreemptedError` on checkpoint-and-stop,
        :class:`WorkerJobError` for child-side job failures, and
        :class:`WorkerDied` when the child vanished, lost its lease or
        outlived its budget by :data:`HARD_TIMEOUT_GRACE`.
        """

        def register(handle: AttemptHandle) -> None:
            with self._lock:
                self.spawned += 1
                self._attempts[job.id] = handle
            job.current_ck = handle

        try:
            handle = template.launch(
                _run_cells, self._payload(job),
                name=f"repro-worker-{job.id}-a{job.attempts}", before=register,
            )
            verdict = handle.supervise(
                lambda msg: self._handle_message(job, msg, on_simulated),
                budget=budget, grace=HARD_TIMEOUT_GRACE,
                lease_timeout=self.lease_timeout,
            )
        except WorkerDied as died:
            if died.reason == "lease-expired":
                with self._lock:
                    self.lease_expired += 1
            raise
        finally:
            job.current_ck = None
            with self._lock:
                self._attempts.pop(job.id, None)
        if verdict[0] == "preempted":
            raise PreemptedError(Path(verdict[1]), verdict[2])
        if verdict[0] == "error":
            raise WorkerJobError(verdict[1], verdict[2], verdict[4])
        with self._lock:
            self.completions += 1

    def _payload(self, job: Any) -> dict[str, Any]:
        done = set(job.partial)
        remaining = [
            [wl, pol] for wl, pol in job.cells if f"{wl}/{pol}" not in done
        ]
        claim = getattr(job, "fleet_claim", None)
        fleet = None
        if self.fleet_dir is not None and claim is not None:
            # The child re-checks this (dir, key, epoch) fence right
            # before every shared-store publish: once a peer reclaims the
            # claim at a higher epoch, this attempt can no longer write.
            fleet = {
                "dir": self.fleet_dir,
                "host_id": self.fleet_host,
                "job_key": claim.key,
                "epoch": claim.epoch,
            }
        return {
            "label": job.label,
            "attempt": job.attempts,
            "start_sites": (
                "worker.start.crash", "queue.attempt.slow", "queue.attempt.crash",
            ),
            "checkpoints": True,
            "scenario": job.scenario,
            "cells": remaining,
            "checkpoint_every": self.checkpoint_every,
            "spool": self.spool,
            "cache_dir": self.cache_dir,
            "mem_limit_mb": self.mem_limit_mb,
            "fleet": fleet,
        }

    def _handle_message(
        self,
        job: Any,
        msg: tuple,
        on_simulated: Callable[[], None] | None,
    ) -> None:
        """Apply one streamed child message to the job record."""
        kind = msg[0]
        if kind == "event":
            job.events.append(msg[1])
        elif kind == "snapshot_discarded":
            job.events.append({"kind": "snapshot_discarded", "cell": msg[1]})
        elif kind == "fleet_fenced":
            job.events.append({"kind": "fleet_fenced", "cell": msg[1]})
            if self.on_fenced is not None:
                self.on_fenced()
        elif kind == "cell_done":
            _, cell, result, cache_hit, resumed = msg
            job.partial[cell] = result
            job.cells_done += 1
            if cache_hit:
                job.cache_hits += 1
            else:
                job.simulated += 1
                if on_simulated is not None:
                    on_simulated()
            if resumed is not None:
                job.resumed_from_task = max(job.resumed_from_task or 0, resumed)
            job.events.append(
                {"kind": "cell_done", "cell": cell, "cache_hit": cache_hit}
            )

    # ------------------------------------------------------------------
    # health accounting
    # ------------------------------------------------------------------

    def note_death(self) -> None:
        """Record a worker death; shed concurrency under a death burst.

        ``degrade_after`` deaths inside ``degrade_window`` seconds drop
        :attr:`concurrency` one step (floor 1) and reset the window —
        repeated crashes serialize the pool instead of crash-looping it
        at full width.
        """
        now = time.monotonic()
        with self._lock:
            self.deaths += 1
            self._death_times.append(now)
            cutoff = now - self.degrade_window
            self._death_times = [t for t in self._death_times if t >= cutoff]
            if (
                len(self._death_times) >= self.degrade_after
                and self.concurrency > 1
            ):
                self.concurrency -= 1
                self._death_times.clear()

    def note_ok(self) -> None:
        """A healthy completion with no recent deaths restores one step."""
        now = time.monotonic()
        with self._lock:
            cutoff = now - self.degrade_window
            self._death_times = [t for t in self._death_times if t >= cutoff]
            if not self._death_times and self.concurrency < self.workers:
                self.concurrency += 1

    def kill_all(self) -> int:
        """SIGKILL every live child (the drain deadline's backstop), then
        stop the fork template unless another pool's attempt still runs.

        Waits until each killed pid is gone, i.e. reaped by the template,
        so the caller observes them dead — a SIGKILL'd process exits
        immediately, so the wait is bounded in practice; the timeout only
        guards kernel pathology.  The join is left to each attempt's
        supervisor (see :meth:`AttemptHandle.alive`).  A child still
        being launched (the first waits for the template to start) is
        left to its supervisor too, which forwards the drain's preempt
        request once the child reports ready.
        """
        with self._lock:
            handles = list(self._attempts.values())
        killed = [h for h in handles if h.alive()]
        for handle in killed:
            handle.kill()
        deadline = time.monotonic() + 5.0
        while any(h.alive() for h in killed) and time.monotonic() < deadline:
            time.sleep(0.01)
        template.stop_idle_template()
        return len(killed)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            busy = len(self._attempts)
            alive = sum(1 for h in self._attempts.values() if h.alive())
            return {
                "configured": self.workers,
                "concurrency": self.concurrency,
                "busy": busy,
                "alive": alive,
                "spawned": self.spawned,
                "deaths": self.deaths,
                "restarts": self.restarts,
                "lease_expired": self.lease_expired,
                "completions": self.completions,
                "lease_timeout": self.lease_timeout,
                "mem_limit_mb": self.mem_limit_mb,
            }


# ---------------------------------------------------------------------------
# child side: the body of every service attempt
# ---------------------------------------------------------------------------


def _run_cells(attempt: template.Attempt) -> None:
    """Run the attempt's remaining cells, streaming each result."""
    payload = attempt.payload
    if payload["mem_limit_mb"]:
        try:
            import resource

            limit = int(payload["mem_limit_mb"]) << 20
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        except (ImportError, ValueError, OSError):
            pass
    from repro.service.cache import ResultCache, request_key

    scenario = payload["scenario"]
    cfg = scenario.to_config()
    fleet = payload.get("fleet")
    cache = (
        ResultCache(
            payload["cache_dir"],
            fleet_dir=(
                Path(fleet["dir"]) / "results" if fleet is not None else None
            ),
        )
        if payload.get("cache_dir") else None
    )
    spool = Path(payload["spool"])
    for wl, pol in payload["cells"]:
        cell = f"{wl}/{pol}"
        attempt.stamp()
        key = request_key(cfg, wl, pol, scenario.seed)
        cached = cache.get(key) if cache is not None else None
        if cached is not None:
            attempt.send(("cell_done", cell, cached, True, None))
            continue
        result, resumed = _simulate(
            attempt, cfg, scenario, wl, pol, key, spool, cache
        )
        attempt.send(("cell_done", cell, result, False, resumed))


def _simulate(
    attempt: template.Attempt, cfg: Any, scenario: Any, wl: str, pol: str,
    key: str, spool: Path, cache: Any,
) -> tuple[dict[str, Any], int | None]:
    from repro.api import Session
    from repro.obs.observer import Observer
    from repro.obs.stream import CallbackSink

    snap_path = spool / f"{key}.snap"

    def run(resume_from: Path | None) -> Any:
        ck = attempt.checkpointer(
            snap_path, every=attempt.payload["checkpoint_every"]
        )
        observer = Observer(
            sink=CallbackSink(lambda evt: attempt.send(("event", evt))),
            timeline=False,
        )
        return Session(cfg, seed=scenario.seed).run(
            wl, pol, trace=observer, checkpoint=ck, resume_from=resume_from,
        )

    # A spool snapshot of some other identity (stale key collision, older
    # build) is quarantined and the cell runs fresh.
    rr = template.resume_or_fresh(
        run, snap_path,
        on_discard=lambda: attempt.send(("snapshot_discarded", f"{wl}/{pol}")),
    )
    result = rr.stats_dict()
    resumed = rr.experiment.extra.get("resumed_from_task")
    if cache is not None:
        fleet = attempt.payload.get("fleet")
        fence = None
        if fleet is not None:
            from repro.service.fleet import claim_matches

            def fence() -> bool:
                # Re-read the claim file at the last possible moment: a
                # peer that reclaimed this job holds a higher epoch, so a
                # stale attempt fails here and never publishes.
                return claim_matches(
                    fleet["dir"], fleet["job_key"],
                    fleet["host_id"], fleet["epoch"],
                )

        fenced_before = cache.fleet_fenced
        cache.put(
            key, result,
            meta={"workload": wl, "policy": pol, "seed": scenario.seed,
                  "scale": scenario.machine.scale},
            fence=fence,
        )
        if cache.fleet_fenced > fenced_before:
            # Fenced: a peer owns this job now.  Leave the shared spool
            # snapshot alone — it is the new owner's resume point.
            attempt.send(("fleet_fenced", f"{wl}/{pol}"))
            return result, resumed
    try:
        snap_path.unlink()
    except OSError:
        pass
    return result, resumed
