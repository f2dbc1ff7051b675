"""Supervised multi-process worker pool: crash isolation + heartbeat leases.

The PR-6 queue executed every simulation on a ``ThreadPoolExecutor``
inside the server process, so one segfaulting, OOM-ing, or runaway job
took the whole service down with it.  This module moves each job attempt
into a **process-isolated child** supervised from the (still
thread-based) attempt slot:

* **Process-per-attempt** — a fresh child per attempt, forked from the
  pre-imported template of :mod:`repro.template`, which the sweep harness
  shares: the child inherits no locks, no server heap and no earlier
  job's state, yet skips the interpreter start and ``repro`` import a
  cold start would pay on every attempt.  A crash costs exactly one
  attempt.
  The child streams progress over a one-way pipe (``ready`` /
  ``cell_done`` / ``event`` / terminal ``ok``/``preempted``/``error``)
  and writes results/snapshots to the shared cache/spool directories —
  both atomic, so a child dying mid-write leaves either the old bytes or
  the new bytes, never a torn file the parent would trust.
* **Heartbeat lease** — the child stamps a shared array at every
  dispatch boundary (through a :class:`Checkpointer` subclass).  The
  supervisor kills any child silent past ``lease_timeout``: a hung
  worker is indistinguishable from a dead one, and both become a
  :class:`WorkerDied` the queue requeues under its retry budget.
  Lease age is judged on ``time.monotonic()`` deltas (parent and child
  share one host, so one monotonic clock) — an NTP step can slew the
  wall clock by minutes without making a healthy worker look dead; the
  wall-clock stamp rides along for diagnostics only.
  Byte-identical resume comes for free: the retry attempt resumes from
  the dead worker's last periodic snapshot in the spool (the PR-5
  replay-journal guarantee).
* **Memory rlimit** — ``mem_limit_mb`` applies ``RLIMIT_AS`` in the
  child, so a leaking simulation gets ``MemoryError`` (a classified,
  retryable failure) instead of inviting the host OOM killer to shoot
  the server.
* **Ready gating** — the child's bootstrap runs before it installs its
  SIGTERM handler.  The supervisor never forwards a preempt signal until
  the child reports ``ready``, so a drain can't kill a child mid-startup
  and lose the checkpoint the drain exists to write.
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

import multiprocessing
import os
import signal
import threading
import time
from pathlib import Path
from typing import Any, Callable

from repro import failpoints, template
from repro.snapshot import Checkpointer, PreemptedError

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

#: heartbeat array slots: lease decisions read the monotonic stamp; the
#: wall stamp exists only so humans can line logs up against it.
_HB_MONO = 0
_HB_WALL = 1


def _stamp(hb: Any) -> None:
    """Stamp the heartbeat lease (child side, every task boundary)."""
    hb[_HB_MONO] = time.monotonic()
    hb[_HB_WALL] = time.time()


class WorkerDied(Exception):
    """A worker process died (or was killed) without settling its job.

    ``reason`` is one of ``"crashed"`` (exited without a terminal
    message), ``"lease-expired"`` (heartbeat went silent), or
    ``"hard-timeout"`` (never reached a task boundary in the grace
    window).  ``exitcode`` is the raw ``Process.exitcode`` (negative =
    killed by that signal); ``term_signal`` extracts the signal number.
    """

    def __init__(
        self,
        reason: str,
        *,
        exitcode: int | None = None,
        heartbeat_age: float = 0.0,
    ) -> None:
        self.reason = reason
        self.exitcode = exitcode
        self.term_signal = (
            -exitcode if exitcode is not None and exitcode < 0 else None
        )
        self.heartbeat_age = heartbeat_age
        detail = f"worker {reason}"
        if self.term_signal is not None:
            detail += f" (signal {self.term_signal})"
        elif exitcode is not None:
            detail += f" (exit code {exitcode})"
        detail += f"; last heartbeat {heartbeat_age:.1f}s ago"
        super().__init__(detail)


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


class AttemptHandle:
    """The supervisor's view of one in-flight child attempt.

    Duck-types the one :class:`Checkpointer` method the queue's drain
    loop uses (:meth:`request_preempt`), so ``job.current_ck`` keeps
    working unchanged: a preempt request is forwarded to the child as
    SIGTERM once it reports ready.
    """

    def __init__(self, proc: multiprocessing.process.BaseProcess, hb: Any) -> None:
        self.proc = proc
        self.hb = hb
        self.ready = False
        self.preempt_requested = False
        self.signalled = False

    def request_preempt(self) -> None:
        """Signal-handler-safe: only sets a flag; the supervision loop
        forwards SIGTERM (repeat calls are idempotent)."""
        self.preempt_requested = True

    def alive(self) -> bool:
        """Whether the child's pid still exists; safe from any thread.

        Only the supervisor thread may poll or join ``proc``: a forked
        child's exit code is read once from the template's pipe, and a
        second reader would get EOF and record exit code 255 instead.
        """
        pid = self.proc.pid
        return pid is not None and template.alive(pid)

    def heartbeat_age(self) -> float:
        """Seconds since the child's last stamp, on the shared monotonic
        clock — immune to wall-clock (NTP) steps in either direction."""
        return max(0.0, time.monotonic() - self.hb[_HB_MONO])

    def heartbeat_wall(self) -> float:
        """The wall-clock time of the last stamp — diagnostics only,
        never used for lease-expiry decisions."""
        return self.hb[_HB_WALL]


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
        :class:`WorkerDied` when the child vanished or lost its lease.
        """
        ctx = multiprocessing.get_context("forkserver")
        recv, send = ctx.Pipe(duplex=False)
        # [monotonic, wall]: CLOCK_MONOTONIC is per-boot, so parent and
        # child (same host by construction) read the same timeline.
        hb = ctx.Array("d", [time.monotonic(), time.time()], lock=False)
        payload = self._payload(job, budget)
        proc = ctx.Process(
            target=_attempt_main, args=(send, hb, payload),
            name=f"repro-worker-{job.id}-a{job.attempts}", daemon=True,
        )
        handle = AttemptHandle(proc, hb)
        with self._lock:
            self.spawned += 1
            self._attempts[job.id] = handle
        job.current_ck = handle
        template.fork_attempt(proc)
        send.close()  # child holds the only write end: EOF tracks its death
        start = time.monotonic()
        hard_deadline = (
            None if budget is None else start + budget + HARD_TIMEOUT_GRACE
        )
        terminal: tuple | None = None
        try:
            while terminal is None:
                if handle.preempt_requested and handle.ready and not handle.signalled:
                    handle.signalled = True
                    _signal(proc, signal.SIGTERM)
                got = recv.poll(0.05)
                if got:
                    try:
                        msg = recv.recv()
                    except (EOFError, OSError):
                        break
                    terminal = self._handle_message(job, handle, msg, on_simulated)
                    continue
                age = handle.heartbeat_age()
                if hard_deadline is not None and time.monotonic() >= hard_deadline:
                    _hard_kill(proc)
                    raise WorkerDied(
                        "hard-timeout", exitcode=proc.exitcode, heartbeat_age=age
                    )
                if age > self.lease_timeout:
                    with self._lock:
                        self.lease_expired += 1
                    _hard_kill(proc)
                    raise WorkerDied(
                        "lease-expired", exitcode=proc.exitcode, heartbeat_age=age
                    )
                if not proc.is_alive():
                    while recv.poll(0):  # drain what the child flushed dying
                        try:
                            msg = recv.recv()
                        except (EOFError, OSError):
                            break
                        terminal = self._handle_message(
                            job, handle, msg, on_simulated
                        )
                        if terminal is not None:
                            break
                    break
            if terminal is None:
                proc.join(timeout=5.0)
                raise WorkerDied(
                    "crashed",
                    exitcode=proc.exitcode,
                    heartbeat_age=handle.heartbeat_age(),
                )
        finally:
            job.current_ck = None
            with self._lock:
                self._attempts.pop(job.id, None)
            if proc.is_alive():
                _hard_kill(proc)
            proc.join(timeout=5.0)
            template.forget_attempt(proc)
            recv.close()
        kind = terminal[0]
        if kind == "ok":
            with self._lock:
                self.completions += 1
            return
        if kind == "preempted":
            raise PreemptedError(Path(terminal[1]), terminal[2])
        if kind == "error":
            raise WorkerJobError(terminal[1], terminal[2], terminal[3])
        raise WorkerDied(  # unknown terminal: treat as protocol corruption
            "crashed", exitcode=proc.exitcode, heartbeat_age=handle.heartbeat_age()
        )

    def _payload(self, job: Any, budget: float | None) -> dict[str, Any]:
        done = set(job.partial)
        remaining = [
            [wl, pol] for wl, pol in job.spec.cells()
            if f"{wl}/{pol}" not in done
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
            "spec": job.spec.to_dict(),
            "label": job.spec.label,
            "attempt": job.attempts,
            "cells": remaining,
            "budget": budget,
            "checkpoint_every": self.checkpoint_every,
            "spool": self.spool,
            "cache_dir": self.cache_dir,
            "mem_limit_mb": self.mem_limit_mb,
            "parent_pid": os.getpid(),
            "failpoints": failpoints.active_spec(),
            "fleet": fleet,
        }

    def _handle_message(
        self,
        job: Any,
        handle: AttemptHandle,
        msg: tuple,
        on_simulated: Callable[[], None] | None,
    ) -> tuple | None:
        """Apply one child message to the job record; return terminal msgs."""
        kind = msg[0]
        if kind == "ready":
            handle.ready = True
            return None
        if kind == "event":
            job.events.append(msg[1])
            return None
        if kind == "snapshot_discarded":
            job.events.append({"kind": "snapshot_discarded", "cell": msg[1]})
            return None
        if kind == "fleet_fenced":
            job.events.append({"kind": "fleet_fenced", "cell": msg[1]})
            if self.on_fenced is not None:
                self.on_fenced()
            return None
        if kind == "cell_done":
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
            return None
        return msg  # ok / preempted / error settle the attempt

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
            _signal(handle.proc, signal.SIGKILL)
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


def _signal(proc: multiprocessing.process.BaseProcess, sig: int) -> None:
    try:
        if proc.pid is not None:
            os.kill(proc.pid, sig)
    except (ProcessLookupError, OSError):
        pass


def _hard_kill(proc: multiprocessing.process.BaseProcess) -> None:
    try:
        proc.kill()
    except (ValueError, OSError):  # already reaped
        pass


# ---------------------------------------------------------------------------
# child side
# ---------------------------------------------------------------------------


def _safe_send(conn: Any, msg: tuple) -> None:
    """Send, swallowing a vanished parent — the child finishes its atomic
    cache/spool writes either way, and those are what resume reads."""
    try:
        conn.send(msg)
    except (BrokenPipeError, OSError):
        pass


def _attempt_main(conn: Any, hb: Any, payload: dict[str, Any]) -> None:
    """Child entry point: run the attempt's remaining cells, stream progress.

    Ordering here is the crash-safety contract: the template prologue
    (PDEATHSIG, a dead server's exit 98, failpoints) and the rlimit first,
    so even an early wreck is contained, then signal handlers, then the
    ``ready`` message — only after which the parent will forward SIGTERM.
    """
    template.attempt_prologue(payload["parent_pid"], payload["failpoints"])
    if payload.get("mem_limit_mb"):
        try:
            import resource

            limit = int(payload["mem_limit_mb"]) << 20
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        except (ImportError, ValueError, OSError):
            pass

    # The current cell's checkpointer, shared with the SIGTERM handler.
    holder: dict[str, Any] = {"ck": None, "preempt": False}

    def _on_term(signum: int, frame: Any) -> None:
        holder["preempt"] = True
        ck = holder["ck"]
        if ck is not None:
            ck.request_preempt()

    signal.signal(signal.SIGTERM, _on_term)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _stamp(hb)
    _safe_send(conn, ("ready",))
    fctx = {"job": payload["label"], "attempt": payload["attempt"]}
    try:
        failpoints.fire("worker.start.crash", **fctx)
        failpoints.fire("queue.attempt.slow", **fctx)
        failpoints.fire("queue.attempt.crash", **fctx)
        _run_cells(conn, hb, holder, payload, fctx)
    except PreemptedError as exc:
        _safe_send(conn, ("preempted", str(exc.path), exc.tasks_completed))
        conn.close()
        os._exit(75)  # EX_TEMPFAIL, same as the server's drain exit
    except BaseException as exc:  # noqa: BLE001 - classified by the parent
        from repro.experiments.harness import PERMANENT_ERRORS

        _safe_send(
            conn,
            ("error", type(exc).__name__, str(exc),
             isinstance(exc, PERMANENT_ERRORS)),
        )
        conn.close()
        os._exit(1)
    _safe_send(conn, ("ok",))
    conn.close()
    os._exit(0)


def _run_cells(
    conn: Any, hb: Any, holder: dict[str, Any], payload: dict[str, Any],
    fctx: dict[str, Any],
) -> None:
    # Heavy imports happen here, after ready (a forked child finds them
    # already loaded): the budget deadline below is computed after them,
    # so a short time slice buys simulation, not interpreter startup.
    from repro.service.cache import ResultCache, request_key
    from repro.service.queue import spec_from_dict

    spec = spec_from_dict(payload["spec"])
    cfg = spec.config()
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
    budget = payload["budget"]
    deadline = time.monotonic() + budget if budget is not None else None
    for wl, pol in payload["cells"]:
        cell = f"{wl}/{pol}"
        _stamp(hb)
        key = request_key(cfg, wl, pol, spec.seed)
        cached = cache.get(key) if cache is not None else None
        if cached is not None:
            _safe_send(conn, ("cell_done", cell, cached, True, None))
            continue
        result, resumed = _simulate(
            conn, hb, holder, payload, fctx, cfg, spec, wl, pol, key,
            spool, cache, deadline,
        )
        _safe_send(conn, ("cell_done", cell, result, False, resumed))


class _WorkerCheckpointer(Checkpointer):
    """Checkpointer that also stamps the heartbeat lease and evaluates
    worker-scoped failpoints at every live dispatch boundary."""

    def __init__(self, *args: Any, hb: Any = None,
                 fctx: dict[str, Any] | None = None, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._hb = hb
        self._fctx = fctx or {}
        # Activation is fixed for the child's lifetime; cache the check so
        # the uninjected hot path pays one attribute test per dispatch.
        self._fp_active = failpoints.get().active

    def after_dispatch(self, executor: Any, name: str, duration: int) -> None:
        if self._hb is not None:
            _stamp(self._hb)
        if self._fp_active:
            ctx = dict(self._fctx, task=executor.machine.tasks_completed)
            failpoints.fire("worker.crash", **ctx)
            failpoints.fire("worker.hang", **ctx)
            failpoints.fire("worker.oom", **ctx)
        super().after_dispatch(executor, name, duration)


def _simulate(
    conn: Any, hb: Any, holder: dict[str, Any], payload: dict[str, Any],
    fctx: dict[str, Any], cfg: Any, spec: Any, wl: str, pol: str, key: str,
    spool: Path, cache: Any, deadline: float | None,
) -> tuple[dict[str, Any], int | None]:
    from repro.api import Session
    from repro.obs.observer import Observer
    from repro.obs.stream import CallbackSink
    from repro.snapshot import SnapshotMismatchError, load_or_quarantine

    snap_path = spool / f"{key}.snap"

    def make_ck() -> _WorkerCheckpointer:
        ck = _WorkerCheckpointer(
            snap_path, every=payload["checkpoint_every"], deadline=deadline,
            hb=hb, fctx=fctx,
        )
        holder["ck"] = ck
        if holder["preempt"]:  # SIGTERM landed before this cell started
            ck.request_preempt()
        return ck

    def make_observer() -> Any:
        return Observer(
            sink=CallbackSink(lambda evt: _safe_send(conn, ("event", evt))),
            timeline=False,
        )

    ck = make_ck()
    resume_from = None
    if snap_path.is_file() and load_or_quarantine(snap_path) is not None:
        resume_from = snap_path
    session = Session(cfg, seed=spec.seed)
    try:
        rr = session.run(
            wl, pol, trace=make_observer(), checkpoint=ck,
            resume_from=resume_from,
        )
    except SnapshotMismatchError:
        if resume_from is None:
            raise
        # The spool snapshot belongs to some other identity (stale key
        # collision, older build): quarantine it and run fresh.
        try:
            os.replace(snap_path, str(snap_path) + ".corrupt")
        except OSError:
            pass
        _safe_send(conn, ("snapshot_discarded", f"{wl}/{pol}"))
        ck = make_ck()
        session = Session(cfg, seed=spec.seed)
        rr = session.run(wl, pol, trace=make_observer(), checkpoint=ck)
    finally:
        holder["ck"] = None
    result = rr.stats_dict()
    resumed = rr.experiment.extra.get("resumed_from_task")
    if cache is not None:
        fleet = payload.get("fleet")
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
            meta={"workload": wl, "policy": pol, "seed": spec.seed,
                  "scale": spec.scale},
            fence=fence,
        )
        if cache.fleet_fenced > fenced_before:
            # Fenced: a peer owns this job now.  Leave the shared spool
            # snapshot alone — it is the new owner's resume point.
            _safe_send(conn, ("fleet_fenced", f"{wl}/{pol}"))
            return result, resumed
    try:
        snap_path.unlink()
    except OSError:
        pass
    return result, resumed
