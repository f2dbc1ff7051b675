"""Bounded asyncio job queue: retries, backoff, breaker, eviction, cache.

One :class:`JobQueue` owns every job the server accepts.  The robustness
contract, piece by piece:

* **Bounded admission** — a :class:`CircuitBreaker` watches queue depth;
  past ``max_pending`` it opens and submissions are shed with a typed
  ``saturated`` error (HTTP 503 + ``Retry-After``) until the backlog
  drains below the low-water mark.  The server never builds an unbounded
  queue it can only fall over under.
* **Content-addressed dedup** — before any work, each cell of a job is
  looked up in the :class:`~repro.service.cache.ResultCache` under
  :func:`~repro.service.cache.request_key`; duplicate submissions of an
  identical config perform exactly zero new simulation.
* **Bounded retries with backoff + jitter** — transient failures re-run
  the attempt after :func:`repro.template.retry_delay`
  (exponential, capped, jittered); permanent errors
  (:data:`~repro.template.PERMANENT_ERRORS`) fail immediately
  with a typed ``job-failed`` envelope.
* **Wall-clock budgets and eviction** — every attempt runs under a
  budget, at which the worker is asked to checkpoint, so a job past its
  time slice (``evict_after``) preempts itself *at a task boundary*,
  leaves a resumable snapshot in the spool, and goes to the back of the
  queue; a job past its total ``timeout`` fails (typed ``timeout``) but
  its snapshot survives, so a resubmission resumes instead of restarting.
* **Graceful drain** — :meth:`JobQueue.drain` (the SIGTERM path) preempts
  every in-flight job to its snapshot and refuses new work; ``kill -9``
  loses nothing already cached because cache and spool writes are atomic.

Simulations run on a supervised **process-per-attempt worker pool**
(:class:`~repro.service.workers.WorkerPool`): each attempt is a fresh
subprocess, forked from a pre-imported template, holding a heartbeat
lease, so a segfault, OOM, or hang costs one attempt, never the server.
On top of the pool this module adds:

* **Crash requeue** — a :class:`~repro.service.workers.WorkerDied`
  requeues the job (resuming byte-identically from its last spool
  snapshot) under a budget that always reaches the poison threshold.
* **Poison quarantine** — a job whose attempts kill ``poison_after``
  workers is quarantined with a diagnostic bundle under
  ``spool/poison/`` and rejected (typed ``poisoned``) for the rest of
  this server's lifetime, instead of crash-looping the pool.
* **Graceful degradation** — bursts of worker deaths shed pool
  concurrency toward 1; healthy completions restore it.

In **fleet mode** (constructed with a
:class:`~repro.service.fleet.FleetNode`) the queue additionally:

* claims every job through the fleet's lease-fenced ownership protocol
  before running it (``_acquire_claim``) — a job someone else owns is
  awaited, not re-run, and completes from the shared store;
* publishes queued jobs into this host's fleet queue shard so idle
  peers can steal them;
* runs a periodic fleet tick (heartbeat, peer scan, reclaim of dead
  hosts' claims, bounded steal) that adopts orphaned work as
  client-invisible **ghost jobs**, resumed byte-identically from the
  shared spool snapshot;
* carries poison quarantine fleet-wide: a job that kills
  ``poison_after`` *hosts* (claim-tracked) or workers is rejected by
  every host, not just this one.

Failure injection for all of the above goes through the deterministic
failpoint registry (:mod:`repro.failpoints`).
"""

from __future__ import annotations

import asyncio
import collections
import json
import random
import threading
import time
import uuid
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro import failpoints
from repro.ioutils import atomic_write
from repro.scenario.loader import load_scenario
from repro.scenario.model import (
    CheckpointSpec,
    Scenario,
    TraceSpec,
    parse_scenario,
)
from repro.service.cache import ResultCache, request_key
from repro.service.envelope import ServiceError
from repro.service.fleet import FleetNode, job_key
from repro.service.workers import WorkerDied, WorkerPool
from repro.snapshot import PreemptedError, config_sha256
from repro.template import PERMANENT_ERRORS, retry_delay

__all__ = [
    "Job",
    "JobQueue",
    "CircuitBreaker",
    "EventBuffer",
    "cell_keys",
    "scenario_cells",
    "scenario_from_body",
    "scenario_label",
    "service_form",
]

#: job states.  ``preempted`` is terminal for this server instance but not
#: for the work: the snapshot in the spool resumes it on resubmission.
JOB_STATES = ("queued", "running", "done", "failed", "preempted")
#: the states that count toward :meth:`JobQueue.depth`.
LIVE_STATES = ("queued", "running")
#: finished job records a server keeps for status and result queries;
#: past this many the oldest is retired, so a long-running server's job
#: table (and its memory) stops growing with the requests it has served.
KEEP_FINISHED = 1024


def scenario_from_body(
    raw: Any, kind: str | None = None, *, source: str = "request"
) -> Scenario:
    """Parse the scenario of a job: a curated-library name or a mapping.

    ``kind`` is the endpoint's (``run`` or ``sweep``) when the scenario
    was posted to one.  Raises :class:`ValueError` naming the problem
    (a :class:`~repro.scenario.ScenarioError` for schema errors); the
    server maps it to a typed ``invalid-request`` envelope.
    """
    if isinstance(raw, str):
        scenario = load_scenario(raw)
    else:
        scenario = parse_scenario(raw, source=source)
    if scenario.kind == "multiprog":
        raise ValueError(
            f"multiprog scenario {scenario.name!r} cannot run through the "
            "service (co-runners share one merged machine, which defeats "
            "per-cell caching); run it with 'repro run' or "
            "repro.run_scenario()"
        )
    if kind is not None and scenario.kind != kind:
        raise ValueError(
            f"scenario {scenario.name!r} is a {scenario.kind} but was "
            f"submitted to the {kind} endpoint"
        )
    return scenario


def scenario_cells(scenario: Scenario) -> list[tuple[str, str]]:
    """The (workload, policy) cells of a run or sweep scenario."""
    if scenario.kind == "sweep":
        return [
            (wl, pol) for wl in scenario.workloads for pol in scenario.policies
        ]
    return [(scenario.workload, scenario.policy)]


def scenario_label(scenario: Scenario) -> str:
    """``workload/policy`` of a run, ``sweep:NxM`` of a sweep: the label
    of a job's events, its failpoint context and a run's result cell."""
    if scenario.kind == "sweep":
        return f"sweep:{len(scenario.workloads)}x{len(scenario.policies)}"
    return f"{scenario.workload}/{scenario.policy}"


def cell_keys(scenario: Scenario) -> dict[str, str]:
    """Cell label (``workload/policy``) -> result-cache request key of
    each cell of a run or sweep scenario, from one config compile."""
    cfg = scenario.to_config()
    return {
        f"{wl}/{pol}": request_key(cfg, wl, pol, scenario.seed)
        for wl, pol in scenario_cells(scenario)
    }


#: one (frozen) instance each for every service-form scenario, so the
#: job records a server retains share them.
_NO_TRACE = TraceSpec()
_NO_CHECKPOINT = CheckpointSpec()


def service_form(scenario: Scenario) -> Scenario:
    """``scenario`` as the service runs and identifies it.

    The service runs cells; it never reads a scenario's name,
    description, trace or checkpoint block.  The service form drops them
    and takes the job label as its name, so the same run submitted under
    any name, traced or not, has one form.  Its ``to_dict()`` is a job's
    only serialized description and the input of its
    :func:`~repro.service.fleet.job_key`.
    """
    return replace(
        scenario, name=scenario_label(scenario), description="",
        trace=_NO_TRACE, checkpoint=_NO_CHECKPOINT, source="",
    )


class EventBuffer:
    """Thread-safe, bounded, cursor-addressed progress feed.

    Worker threads and the event loop append; the NDJSON endpoint reads
    with :meth:`since` and, once it has caught up, awaits :meth:`wait`
    until the next event or :meth:`close`.  Past ``capacity`` the oldest
    events are discarded (counted in :attr:`dropped`) — a slow consumer
    can lose history, never correctness.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.dropped = 0
        self._items: list[dict[str, Any]] = []
        self._base = 0  # cursor of _items[0]
        self._lock = threading.Lock()
        self._closed = False
        #: coroutines parked in :meth:`wait`, each with its event loop.
        self._waiters: list[tuple[asyncio.AbstractEventLoop, asyncio.Future]] = []

    def append(self, item: dict[str, Any]) -> None:
        with self._lock:
            self._items.append(item)
            overflow = len(self._items) - self.capacity
            if overflow > 0:
                del self._items[:overflow]
                self._base += overflow
                self.dropped += overflow
            waiters, self._waiters = self._waiters, []
        _wake(waiters)

    def since(self, cursor: int) -> tuple[list[dict[str, Any]], int]:
        """Events at or after ``cursor`` plus the next cursor to read from."""
        with self._lock:
            start = max(0, cursor - self._base)
            items = self._items[start:]
            return items, self._base + len(self._items)

    async def wait(self, cursor: int) -> None:
        """Return once an event at or after ``cursor`` exists or the buffer
        is closed.  The check and the registration share the lock with
        :meth:`append` and :meth:`close`, so no wake-up falls between."""
        loop = asyncio.get_running_loop()
        with self._lock:
            if self._closed or self._base + len(self._items) > cursor:
                return
            fut = loop.create_future()
            self._waiters.append((loop, fut))
        await fut

    def close(self) -> None:
        with self._lock:
            self._closed = True
            waiters, self._waiters = self._waiters, []
        _wake(waiters)

    @property
    def closed(self) -> bool:
        return self._closed


def _wake(waiters: list[tuple[asyncio.AbstractEventLoop, asyncio.Future]]) -> None:
    """Resolve parked :meth:`EventBuffer.wait` futures from any thread."""
    for loop, fut in waiters:
        try:
            loop.call_soon_threadsafe(_resolve, fut)
        except RuntimeError:  # that loop is closed: nobody is waiting
            pass


def _resolve(fut: asyncio.Future) -> None:
    if not fut.done():  # a cancelled waiter (the client went away)
        fut.set_result(None)


@dataclass
class Job:
    """One accepted submission and everything that happened to it."""

    id: str
    #: the run, in its :func:`service_form`.
    scenario: Scenario
    state: str = "queued"
    attempts: int = 0
    evictions: int = 0
    worker_deaths: int = 0   # attempts that killed their worker process
    cache_hits: int = 0      # cells answered from the cache
    simulated: int = 0       # cells this job actually simulated
    cells_done: int = 0
    error: dict[str, Any] | None = None
    result: dict[str, Any] | None = None
    resumed_from_task: int | None = None
    snapshot: str | None = None
    #: how this job entered the queue: ``submit`` (a client), ``reclaim``
    #: (adopted from a dead peer's claim) or ``steal`` (pulled from a
    #: loaded peer's shard).  Non-submit jobs are "ghosts": client-
    #: invisible, but visible in stats for the chaos asserts.
    origin: str = "submit"
    #: the fleet :class:`~repro.service.fleet.ClaimHandle` this job runs
    #: under (fleet mode only); the single release token.
    fleet_claim: Any = None
    created: float = field(default_factory=time.time)
    started: float | None = None
    finished: float | None = None
    spent: float = 0.0       # wall seconds across attempts
    events: EventBuffer = field(default_factory=EventBuffer)
    #: completed cell results carried across evictions/retries.
    partial: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: the in-flight attempt's preempt target — an
    #: :class:`~repro.service.workers.AttemptHandle` (or anything with a
    #: signal-safe ``request_preempt()``), set by the supervision thread.
    current_ck: Any = None
    #: request keys whose shared result dict this record holds
    #: (:meth:`JobQueue._share`), released when the record retires.
    shared_keys: set[str] = field(default_factory=set)
    #: the job's identity across hosts and restarts (poison registry,
    #: fleet claims and queue shards): :func:`~repro.service.fleet.job_key`
    #: of the scenario's ``to_dict()``, computed once at admission.
    key: str = field(init=False)
    cells_total: int = field(init=False)

    def __post_init__(self) -> None:
        self.key = job_key(self.scenario.to_dict())
        self.cells_total = len(self.cells)

    @property
    def cells(self) -> list[tuple[str, str]]:
        return scenario_cells(self.scenario)

    @property
    def label(self) -> str:
        return scenario_label(self.scenario)

    def to_dict(self) -> dict[str, Any]:
        """The job record served by status endpoints (result separate)."""
        out: dict[str, Any] = {
            "id": self.id,
            "kind": self.scenario.kind,
            "scenario": self.scenario.to_dict(),
            "state": self.state,
            "attempts": self.attempts,
            "evictions": self.evictions,
            "worker_deaths": self.worker_deaths,
            "cache_hits": self.cache_hits,
            "simulated": self.simulated,
            "cells_done": self.cells_done,
            "cells_total": self.cells_total,
            "spent_s": round(self.spent, 3),
        }
        if self.error is not None:
            out["error"] = self.error
        if self.resumed_from_task is not None:
            out["resumed_from_task"] = self.resumed_from_task
        if self.snapshot is not None:
            out["snapshot"] = self.snapshot
        if self.origin != "submit":
            out["origin"] = self.origin
        return out

    @property
    def cache_hit(self) -> bool:
        """True when no cell of this job needed new simulation."""
        return self.simulated == 0 and self.state == "done"


class CircuitBreaker:
    """Depth-watching load shedder with hysteresis.

    ``open`` when the backlog reaches ``max_pending``; stays open (shedding
    with ``Retry-After``) until the backlog drains to ``low_water`` so the
    server recovers before accepting more, instead of flapping.
    """

    def __init__(self, max_pending: int, low_water: int | None = None) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.max_pending = max_pending
        self.low_water = (
            max(0, max_pending // 2) if low_water is None else low_water
        )
        if self.low_water >= max_pending:
            raise ValueError("low_water must be below max_pending")
        self.state = "closed"
        self.trips = 0
        self.shed = 0

    def admit(self, depth: int) -> None:
        """Raise a typed ``saturated`` error instead of admitting, when shedding."""
        if self.state == "closed":
            if depth >= self.max_pending:
                self.state = "open"
                self.trips += 1
        elif depth <= self.low_water:
            self.state = "closed"
        if self.state == "open":
            self.shed += 1
            raise ServiceError(
                "saturated",
                f"job queue is saturated ({depth} jobs pending, "
                f"limit {self.max_pending}); retry later",
                retry_after=round(0.5 + 0.25 * depth, 3),
            )


class JobQueue:
    """The job engine behind :class:`~repro.service.server.ServiceServer`."""

    def __init__(
        self,
        *,
        workers: int = 2,
        max_pending: int = 32,
        timeout: float | None = None,
        retries: int = 1,
        backoff: float = 0.25,
        evict_after: float | None = None,
        checkpoint_every: int = 0,
        spool_dir: str | Path,
        cache: ResultCache | None = None,
        jitter_seed: int | None = None,
        lease_timeout: float = 30.0,
        worker_mem_mb: int | None = None,
        poison_after: int = 3,
        degrade_after: int = 2,
        degrade_window: float = 60.0,
        fleet: FleetNode | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if backoff < 0:
            raise ValueError("backoff must be >= 0")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        if evict_after is not None and evict_after <= 0:
            raise ValueError("evict_after must be positive")
        if poison_after < 1:
            raise ValueError("poison_after must be >= 1")
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.evict_after = evict_after
        #: also snapshot every N completed tasks, so even ``kill -9``
        #: (which never reaches the drain path) resumes from the last
        #: periodic snapshot instead of restarting.
        self.checkpoint_every = checkpoint_every
        self.lease_timeout = lease_timeout
        self.worker_mem_mb = worker_mem_mb
        #: worker deaths a single job may cause before it is quarantined.
        self.poison_after = poison_after
        self.degrade_after = degrade_after
        self.degrade_window = degrade_window
        self.spool = Path(spool_dir)
        self.spool.mkdir(parents=True, exist_ok=True)
        self.cache = cache
        self.fleet = fleet
        #: ghost jobs adopted from peers (reclaims + steals).
        self.adopted = 0
        self.breaker = CircuitBreaker(max_pending)
        self.jobs: dict[str, Job] = {}
        #: ids of the jobs in :data:`LIVE_STATES`, kept at every state
        #: change, so :meth:`depth` never scans :attr:`jobs`.
        self._live: set[str] = set()
        #: ids of finished jobs, oldest first; past :data:`KEEP_FINISHED`
        #: the oldest leaves :attr:`jobs`.
        self._finished: collections.deque[str] = collections.deque()
        #: request key -> the result dict cache-hit jobs share, so that
        #: hits of one key do not each hold a decoded copy, and the number
        #: of records in :attr:`jobs` holding it: a key leaves with the
        #: last of them.
        self._hit_results: dict[str, dict[str, Any]] = {}
        self._hit_holders: dict[str, int] = {}
        #: poison-quarantined job keys -> diagnostic bundle path.
        self.poisoned: dict[str, str] = {}
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.evicted = 0
        self.preempted = 0
        self.worker_deaths = 0
        self.simulations_run = 0
        self.draining = False
        self.pool: WorkerPool | None = None
        self._rng = random.Random(jitter_seed)
        self._inflight = 0
        self._ready: asyncio.Queue[str] | None = None
        self._tasks: list[asyncio.Task] = []
        self._pool: Any = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        from concurrent.futures import ThreadPoolExecutor

        self._ready = asyncio.Queue()
        # Supervision slots: each thread blocks in WorkerPool.run_attempt
        # babysitting one child process; simulation itself runs in the
        # children, crash-isolated from this server.
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-job"
        )
        self.pool = WorkerPool(
            self.workers,
            lease_timeout=self.lease_timeout,
            mem_limit_mb=self.worker_mem_mb,
            spool=self.spool,
            cache_dir=None if self.cache is None else self.cache.root,
            checkpoint_every=self.checkpoint_every,
            degrade_after=self.degrade_after,
            degrade_window=self.degrade_window,
            fleet_dir=None if self.fleet is None else self.fleet.root,
            fleet_host=None if self.fleet is None else self.fleet.host_id,
        )
        self._tasks = [
            asyncio.create_task(self._worker_loop(), name=f"jobworker-{i}")
            for i in range(self.workers)
        ]
        if self.fleet is not None:
            self.pool.on_fenced = self.fleet.note_fenced
            self.fleet.register()
            self._tasks.append(
                asyncio.create_task(self._fleet_loop(), name="fleet-tick")
            )

    async def drain(self, grace: float = 10.0) -> int:
        """Graceful shutdown: checkpoint in-flight work, stop the workers.

        Every running job's attempt handle gets a preempt request (the
        supervisor forwards it to the child as SIGTERM); workers then
        stop at their next task boundary with a snapshot in the spool.
        Jobs still queued are marked ``preempted`` without a snapshot (a
        resubmission simply reruns them — and hits the cache for every
        cell that finished).  The join is **bounded**: at the grace
        deadline any still-running child — hung, dying, or mid-crash —
        is SIGKILLed and its job settled, so drain always returns within
        ``grace`` plus epsilon.  Returns the number of jobs that did not
        complete.
        """
        self.draining = True
        failpoints.fire("queue.drain.stall")
        deadline = time.monotonic() + grace
        while True:
            # Re-request every iteration: a worker mid-attempt may create
            # its handle *after* drain started, and a requeued job's next
            # attempt gets a fresh handle too.
            running = False
            for job in self.jobs.values():
                if job.state == "running":
                    running = True
                    ck = job.current_ck
                    if ck is not None:
                        ck.request_preempt()
            if not running or time.monotonic() >= deadline:
                break
            await asyncio.sleep(0.05)
        stopped = 0
        for job in list(self.jobs.values()):  # settling may retire records
            if job.state in LIVE_STATES:
                self._preempt(job)
                stopped += 1
            elif job.state == "preempted":
                stopped += 1
        if self.pool is not None:
            self.pool.kill_all()
        for task in self._tasks:
            task.cancel()
        if self._pool is not None:
            self._pool.shutdown(wait=False)
        if self.fleet is not None:
            # Hand unfinished work back to the fleet: every claim this
            # host still holds is released ownerless (same epoch, so the
            # adopter's takeover still bumps it) and re-published into the
            # queue shard for peers to find; then the lease goes away so
            # peers see a clean departure, not a death.
            for job in self.jobs.values():
                handle, job.fleet_claim = job.fleet_claim, None
                if handle is not None:
                    self.fleet.release(handle, done=False, requeue=True)
            self.fleet.deregister()
        return stopped

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def depth(self) -> int:
        """Jobs queued or running (the breaker's backlog)."""
        return len(self._live)

    def submit(self, scenario: Scenario) -> Job:
        """Admit a run or sweep scenario as a job (or answer it from
        cache); raises :class:`ServiceError`.

        The job holds the scenario's :func:`service_form`.  The
        all-cells-cached fast path completes the job synchronously — a
        duplicate submission never even enters the queue.
        """
        if self.draining:
            raise ServiceError(
                "draining", "server is shutting down; resubmit elsewhere",
                retry_after=5.0,
            )
        if self._ready is None:
            raise ServiceError("internal", "job queue is not started")
        job = Job(id=uuid.uuid4().hex[:12], scenario=service_form(scenario))
        if job.key in self.poisoned:
            raise ServiceError(
                "poisoned",
                f"job {job.label!r} (key {job.key}) is quarantined: it "
                f"repeatedly killed its worker process; diagnostic bundle "
                f"at {self.poisoned[job.key]}",
            )
        if self.fleet is not None:
            fleet_bundle = self.fleet.poisoned(job.key)
            if fleet_bundle is not None:
                raise ServiceError(
                    "poisoned",
                    f"job {job.label!r} (key {job.key}) is quarantined "
                    f"fleet-wide as poison; diagnostic bundle at "
                    f"{fleet_bundle}",
                )
        if self._cache_fast_path(job):
            self.submitted += 1
            self.jobs[job.id] = job
            return job
        self.breaker.admit(self.depth())
        self.submitted += 1
        self.jobs[job.id] = job
        self._set_state(job, "queued")
        job.events.append({"kind": "queued", "label": job.label})
        if self.fleet is not None:
            # Visible in this host's fleet queue shard from this moment:
            # an idle peer may steal it, in which case _acquire_claim
            # below waits for the thief and completes from the store.
            self.fleet.enqueue(job.key, job.scenario.to_dict(), job_id=job.id)
        self._ready.put_nowait(job.id)
        return job

    def get(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise ServiceError(
                "not-found",
                f"unknown job id {job_id!r} (this server keeps the records "
                f"of its last {KEEP_FINISHED} finished jobs)",
            )
        return job

    def stats(self) -> dict[str, Any]:
        return {
            "workers": self.workers,
            "depth": self.depth(),
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "evicted": self.evicted,
            "preempted": self.preempted,
            "worker_deaths": self.worker_deaths,
            "poisoned": len(self.poisoned),
            "simulations_run": self.simulations_run,
            "pool": None if self.pool is None else self.pool.stats(),
            "breaker": {
                "state": self.breaker.state,
                "max_pending": self.breaker.max_pending,
                "trips": self.breaker.trips,
                "shed": self.breaker.shed,
            },
            "draining": self.draining,
            **(
                {
                    "adopted": self.adopted,
                    "ghost_jobs": [
                        {
                            "id": j.id,
                            "origin": j.origin,
                            "state": j.state,
                            "resumed_from_task": j.resumed_from_task,
                        }
                        for j in self.jobs.values()
                        if j.origin != "submit"
                    ],
                }
                if self.fleet is not None else {}
            ),
        }

    def _cache_fast_path(self, job: Job) -> bool:
        """Complete ``job`` immediately iff every cell is already cached."""
        if self.cache is None:
            return False
        keys = cell_keys(job.scenario)
        if not all(key in self.cache for key in keys.values()):
            return False
        for cell, key in keys.items():
            cached = self.cache.get(key)
            if cached is None:  # corrupt entry surfaced mid-check: recompute
                return False
            job.partial[cell] = self._share(job, key, cached)
            job.cache_hits += 1
            job.cells_done += 1
            job.events.append(
                {"kind": "cell_done", "cell": cell, "cache_hit": True}
            )
        self._finish_ok(job)
        return True

    def _share(
        self, job: Job, key: str, result: dict[str, Any]
    ) -> dict[str, Any]:
        """The result dict the jobs of request ``key`` share: the one
        already shared when it equals ``result``, else ``result``, kept
        for the next job while ``job``'s record or another holds it, so
        jobs of one key do not each hold a copy."""
        shared = self._hit_results.get(key)
        if shared != result:
            self._hit_results[key] = shared = result
        if key not in job.shared_keys:
            job.shared_keys.add(key)
            self._hit_holders[key] = self._hit_holders.get(key, 0) + 1
        return shared

    def _retire(self, job_id: str) -> None:
        """Drop a finished record, and each shared result it was the last
        record to hold."""
        job = self.jobs.pop(job_id, None)
        if job is None:
            return
        for key in job.shared_keys:
            holders = self._hit_holders.pop(key) - 1
            if holders:
                self._hit_holders[key] = holders
            else:
                del self._hit_results[key]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    async def _worker_loop(self) -> None:
        assert self._ready is not None
        while True:
            job_id = await self._ready.get()
            job = self.jobs.get(job_id)
            if job is None or job.state != "queued":
                continue
            # Degradation gate: under a burst of worker deaths the pool
            # sheds concurrency below the configured width; loops past
            # the current width idle instead of spawning.
            while (
                self.pool is not None
                and self._inflight >= self.pool.concurrency
                and not self.draining
            ):
                await asyncio.sleep(0.05)
            self._inflight += 1
            try:
                await self._run_job(job)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - never kill the loop
                self._fail(job, ServiceError(
                    "internal", f"{type(exc).__name__}: {exc}"
                ))
            finally:
                self._inflight -= 1

    async def _fleet_loop(self) -> None:
        """Periodic fleet duties: heartbeat, peer scan, reclaim, steal.

        Runs at a quarter of the host lease timeout so a peer observes
        several missed beats before declaring us suspect.  Failures in a
        tick are contained — a transient shared-filesystem error must
        never take the serving loop down with it.
        """
        assert self.fleet is not None
        period = max(0.05, self.fleet.lease_timeout / 4)
        while True:
            await asyncio.sleep(period)
            try:
                self._fleet_tick()
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - tick must survive
                import warnings

                warnings.warn(f"fleet tick failed: {exc}", stacklevel=2)

    def _fleet_tick(self) -> None:
        assert self.fleet is not None
        self.fleet.heartbeat()
        self.fleet.scan()
        if self.draining:
            return
        for handle, claim in self.fleet.reclaim_dead():
            self._adopt(handle, claim.get("scenario"), origin="reclaim")
        if self.depth() == 0:
            # Idle: pull at most one job per tick from a dead or clearly
            # more-loaded peer; bounded so a thundering herd of idle
            # hosts cannot strip a healthy peer bare in one beat.
            for handle, entry in self.fleet.steal(self.depth(), limit=1):
                self._adopt(handle, entry.get("scenario"), origin="steal")

    def _adopt(self, handle: Any, raw: Any, origin: str) -> None:
        """Admit a reclaimed/stolen claim as a client-invisible ghost job.

        The ghost resumes from the shared spool snapshot exactly like a
        local crash retry would: the snapshot is keyed by ``request_key``
        and identity-checked on load, so resuming a dead peer's work is
        byte-identical to the peer having finished it.
        """
        assert self.fleet is not None and self._ready is not None
        try:
            scenario = scenario_from_body(
                raw, source=f"fleet claim {handle.key}"
            )
        except (ValueError, TypeError) as exc:
            # Unparseable claim (version skew, corruption): settle it so
            # the fleet stops re-adopting it every tick.
            import warnings

            warnings.warn(
                f"dropping unparseable fleet claim {handle.key}: {exc}",
                stacklevel=2,
            )
            self.fleet.release(handle, done=True)
            return
        job = Job(
            id=uuid.uuid4().hex[:12], scenario=service_form(scenario),
            origin=origin, fleet_claim=handle,
        )
        self.adopted += 1
        self.jobs[job.id] = job
        self._set_state(job, "queued")
        job.events.append(
            {"kind": "adopted", "origin": origin, "epoch": handle.epoch,
             "key": handle.key}
        )
        if self._cache_fast_path(job):
            handle, job.fleet_claim = job.fleet_claim, None
            self.fleet.release(handle, done=True)
            return
        self._ready.put_nowait(job.id)

    async def _run_job(self, job: Job) -> None:
        self._set_state(job, "running")
        if job.started is None:
            job.started = time.time()
        try:
            if self.fleet is not None and not await self._acquire_claim(job):
                return  # settled without running: remote result, poison…
            await self._run_attempts(job)
        finally:
            self._settle_fleet(job)

    async def _acquire_claim(self, job: Job) -> bool:
        """Fleet mode: own the job before running it; ``False`` = settled.

        Loops until one of: we win the claim (run it), the result shows
        up in the shared store (a peer — possibly a thief — finished it;
        complete from cache), the job is fleet-poisoned, or we start
        draining.  The loop occupies this worker slot while a live peer
        owns the job, which is exactly the back-pressure we want: the
        work *is* in flight, just elsewhere.
        """
        assert self.fleet is not None
        if job.fleet_claim is not None:
            return True  # requeued (eviction/crash retry): still ours
        key = job.key
        poll = max(0.05, min(0.5, self.fleet.lease_timeout / 10))
        while True:
            if self.draining:
                self._preempt(job)
                return False
            if self.cache is not None and self._cache_fast_path(job):
                self.fleet.remove_queue_entry(key)
                return False
            bundle = self.fleet.poisoned(key)
            if bundle is not None:
                self.fleet.remove_queue_entry(key)
                self._fail(job, ServiceError(
                    "poisoned",
                    f"job {job.label!r} (key {key}) was quarantined "
                    f"fleet-wide as poison; diagnostic bundle at {bundle}",
                ))
                return False
            handle = self.fleet.try_claim(key, job.scenario.to_dict())
            if handle is not None:
                job.fleet_claim = handle
                job.events.append(
                    {"kind": "claimed", "epoch": handle.epoch}
                )
                self.fleet.remove_queue_entry(key)
                return True
            await asyncio.sleep(poll)

    def _settle_fleet(self, job: Job) -> None:
        """Release the job's claim to match its settled state.

        Requeued jobs (``queued``: eviction or crash retry) keep their
        claim — they come back through :meth:`_run_job` and skip
        re-acquisition.  ``done``/``failed`` delete the claim (the work
        is settled fleet-wide); ``preempted`` hands it back ownerless,
        with a queue-shard entry, so a peer adopts it.
        """
        if self.fleet is None or job.state == "queued":
            return
        handle, job.fleet_claim = job.fleet_claim, None
        if handle is None:
            return
        if job.state in ("done", "failed"):
            self.fleet.release(handle, done=True)
        else:
            self.fleet.release(handle, done=False, requeue=True)

    async def _run_attempts(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job.attempts += 1
            job.events.append({"kind": "attempt", "n": job.attempts})
            budget = self._graceful_budget(job)
            t0 = time.monotonic()
            fut = loop.run_in_executor(self._pool, self._attempt, job, budget)
            try:
                await fut
            except WorkerDied as died:
                job.spent += time.monotonic() - t0
                if await self._handle_worker_death(job, died):
                    continue
                return
            except PreemptedError as exc:
                job.spent += time.monotonic() - t0
                job.snapshot = str(exc.path)
                # Settles the job (drain/timeout) or requeues it (eviction);
                # either way this invocation is over — a requeued job comes
                # back through the ready queue, behind waiting work.
                self._classify_preemption(job, exc)
                return
            except Exception as exc:  # noqa: BLE001 - classified below
                job.spent += time.monotonic() - t0
                if await self._maybe_retry(job, exc):
                    continue
                return
            job.spent += time.monotonic() - t0
            if self.pool is not None:
                self.pool.note_ok()
            if self.cache is not None:
                # Later cache hits of these cells share this job's result
                # dicts instead of each decoding its own copy.
                for cell, key in cell_keys(job.scenario).items():
                    job.partial[cell] = self._share(job, key, job.partial[cell])
            self._finish_ok(job)
            return

    def _graceful_budget(self, job: Job) -> float | None:
        """Seconds this attempt may run before self-preempting, or None."""
        slices = []
        if self.evict_after is not None:
            slices.append(self.evict_after)
        if self.timeout is not None:
            slices.append(max(0.05, self.timeout - job.spent))
        return min(slices) if slices else None

    def _classify_preemption(self, job: Job, exc: PreemptedError) -> None:
        """Settle (drain/timeout) or requeue (eviction) a preempted job."""
        if self.draining:
            self._preempt(job, snapshot=str(exc.path),
                          tasks_completed=exc.tasks_completed)
            return
        if self.timeout is not None and job.spent >= self.timeout:
            # Budget exhausted — but the snapshot stays in the spool, so a
            # resubmission of the same config *resumes* rather than restarts.
            self._fail(job, ServiceError(
                "timeout",
                f"job exceeded its {self.timeout}s wall-clock budget "
                f"(checkpointed after {exc.tasks_completed} tasks; a "
                "resubmission will resume from the snapshot)",
            ))
            return
        # Time-slice eviction: back of the queue, snapshot in hand.  The
        # rerun is continuation, not failure — give its attempt back so
        # evictions never eat into the retry budget.
        job.attempts -= 1
        job.evictions += 1
        self.evicted += 1
        self._set_state(job, "queued")
        job.events.append(
            {"kind": "evicted", "snapshot": str(exc.path),
             "tasks_completed": exc.tasks_completed}
        )
        assert self._ready is not None
        self._ready.put_nowait(job.id)

    async def _maybe_retry(self, job: Job, exc: Exception) -> bool:
        """Schedule a retry for a transient failure; False when settled."""
        permanent = (
            isinstance(exc, PERMANENT_ERRORS)
            or getattr(exc, "permanent", False)
        )
        # A child-side failure arrives as WorkerJobError carrying the
        # original exception's name; report that, not the wrapper's.
        error_name = getattr(exc, "error_name", type(exc).__name__)
        retryable = (
            not permanent
            and job.attempts <= self.retries
            and not self.draining
        )
        if not retryable:
            self._fail(job, ServiceError(
                "job-failed", f"{error_name}: {exc}"
            ))
            return False
        await self._back_off(job, error=error_name)
        return True

    async def _back_off(self, job: Job, **cause: Any) -> None:
        """Record a retry and wait out its jittered backoff."""
        delay = retry_delay(job.attempts, self.backoff, rng=self._rng)
        job.events.append({"kind": "retry", "after": round(delay, 3), **cause})
        if delay:
            await asyncio.sleep(delay)

    async def _handle_worker_death(self, job: Job, died: WorkerDied) -> bool:
        """Classify a dead/silent worker; True when the job should rerun.

        Requeues under ``max(retries, poison_after - 1)`` — the crash
        budget must always reach the poison threshold, or a default
        ``retries=1`` queue would fail a poison job before diagnosing it.
        The retry resumes byte-identically from the job's last periodic
        snapshot in the spool.
        """
        job.worker_deaths += 1
        self.worker_deaths += 1
        if self.pool is not None:
            self.pool.note_death()
        job.events.append({
            "kind": "worker_died", "reason": died.reason,
            "exitcode": died.exitcode, "signal": died.term_signal,
            "heartbeat_age_s": round(died.heartbeat_age, 3),
        })
        if self.draining:
            if job.state == "running":
                self._preempt(job)
            return False
        if died.reason == "hard-timeout":
            self._fail(job, ServiceError(
                "timeout",
                f"job exceeded its {self.timeout}s wall-clock budget "
                "and did not reach a task boundary in the grace window",
            ))
            return False
        if job.worker_deaths >= self.poison_after:
            self._quarantine_poison(job, died)
            return False
        if job.attempts <= max(self.retries, self.poison_after - 1):
            if self.pool is not None:
                self.pool.restarts += 1
            await self._back_off(job, error="WorkerDied", reason=died.reason)
            return True
        self._fail(job, ServiceError("job-failed", f"WorkerDied: {died}"))
        return False

    def _quarantine_poison(self, job: Job, died: WorkerDied) -> None:
        """Quarantine a job that keeps killing workers; write diagnostics.

        The bundle under ``spool/poison/`` names everything an operator
        needs to reproduce offline; the registry entry rejects any
        resubmission of the same run for this server's lifetime.
        """
        key = job.key
        bundle_dir = self.spool / "poison"
        bundle_dir.mkdir(parents=True, exist_ok=True)
        bundle_path = bundle_dir / f"{key}.json"
        tail, _ = job.events.since(0)
        bundle = {
            "kind": "poison-quarantine",
            "job_key": key,
            "job_id": job.id,
            "label": job.label,
            "scenario": job.scenario.to_dict(),
            "attempts": job.attempts,
            "worker_deaths": job.worker_deaths,
            "last_death": {
                "reason": died.reason,
                "exitcode": died.exitcode,
                "signal": died.term_signal,
                "heartbeat_age_s": round(died.heartbeat_age, 3),
            },
            "quarantined_at": time.time(),
            "events_tail": tail[-20:],
        }
        with atomic_write(bundle_path) as fh:
            json.dump(bundle, fh, indent=2, sort_keys=True)
        self.poisoned[key] = str(bundle_path)
        if self.fleet is not None:
            # One host diagnosing poison is enough for the whole fleet:
            # publish the bundle so no peer pays the same worker deaths.
            self.fleet.poison(key, bundle)
        self._fail(job, ServiceError(
            "poisoned",
            f"job {job.label!r} killed {job.worker_deaths} worker "
            f"processes and is quarantined as poison; diagnostic bundle "
            f"at {bundle_path}",
        ))

    def _set_state(self, job: Job, state: str) -> None:
        """Move ``job`` to ``state``, keeping :meth:`depth`'s live set and
        retiring the oldest finished record past :data:`KEEP_FINISHED`."""
        job.state = state
        if state in LIVE_STATES:
            self._live.add(job.id)
            return
        self._live.discard(job.id)
        self._finished.append(job.id)
        if len(self._finished) > KEEP_FINISHED:
            self._retire(self._finished.popleft())

    def _preempt(self, job: Job, **detail: Any) -> None:
        """Settle ``job`` as preempted by the drain; ``detail`` joins its
        ``preempted`` event."""
        self._set_state(job, "preempted")
        job.events.append({"kind": "preempted", "reason": "draining", **detail})
        job.events.close()
        self.preempted += 1

    def _finish_ok(self, job: Job) -> None:
        job.result = self._assemble_result(job)
        self._set_state(job, "done")
        job.finished = time.time()
        self.completed += 1
        job.events.append(
            {"kind": "done", "cache_hits": job.cache_hits,
             "simulated": job.simulated}
        )
        job.events.close()

    def _fail(self, job: Job, err: ServiceError) -> None:
        job.error = err.to_dict()
        self._set_state(job, "failed")
        job.finished = time.time()
        self.failed += 1
        job.events.append({"kind": "failed", "error": job.error})
        job.events.close()

    def _assemble_result(self, job: Job) -> dict[str, Any]:
        if job.scenario.kind == "run":
            return job.partial[job.label]
        from repro.experiments.serialize import SCHEMA_VERSION

        return {
            "schema_version": SCHEMA_VERSION,
            "runs": {cell: job.partial[cell] for cell in sorted(job.partial)},
            "failures": [],
            "sweep": {
                "config_sha256": config_sha256(job.scenario.to_config()),
                "seed": job.scenario.seed,
                "scale": job.scenario.machine.scale,
            },
        }

    # ------------------------------------------------------------------
    # the supervision-thread attempt
    # ------------------------------------------------------------------

    def _attempt(self, job: Job, budget: float | None) -> None:
        """Run one attempt of ``job`` in an isolated worker process.

        Blocks the supervision thread inside
        :meth:`WorkerPool.run_attempt` until the child settles; progress
        (``cell_done``, events) is applied to the job record as it
        streams in.  Raises :class:`PreemptedError` on checkpoint-and-
        stop, :class:`WorkerJobError` for child-side job failures, and
        :class:`WorkerDied` when the child crashed or lost its lease —
        the asyncio side classifies all three.
        """
        assert self.pool is not None
        self.pool.run_attempt(job, budget, on_simulated=self._note_simulated)

    def _note_simulated(self) -> None:
        self.simulations_run += 1
