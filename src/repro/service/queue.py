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
  the attempt after :func:`repro.experiments.harness.retry_delay`
  (exponential, capped, jittered); permanent errors
  (:data:`~repro.experiments.harness.PERMANENT_ERRORS`) fail immediately
  with a typed ``job-failed`` envelope.
* **Wall-clock budgets and eviction** — every attempt runs under a
  :class:`~repro.snapshot.Checkpointer` deadline, so a job past its
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
import hashlib
import json
import random
import threading
import time
import uuid
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro import failpoints
from repro.experiments.harness import PERMANENT_ERRORS, retry_delay
from repro.ioutils import atomic_write
from repro.service.cache import ResultCache, request_key
from repro.service.envelope import ServiceError
from repro.service.fleet import FleetNode
from repro.service.workers import (
    HARD_TIMEOUT_GRACE,
    WorkerDied,
    WorkerJobError,
    WorkerPool,
)
from repro.sim.machine import POLICIES
from repro.snapshot import PreemptedError, SnapshotMismatchError

__all__ = [
    "RunSpec",
    "SweepSpec",
    "Job",
    "JobQueue",
    "CircuitBreaker",
    "EventBuffer",
]

#: job states.  ``preempted`` is terminal for this server instance but not
#: for the work: the snapshot in the spool resumes it on resubmission.
JOB_STATES = ("queued", "running", "done", "failed", "preempted")


def _machine_spec(scale: int, mesh, cluster, rrt_entries):
    from repro.scenario.model import MachineSpec

    mesh = mesh or (4, 4)
    cluster = cluster or (2, 2)
    return MachineSpec(
        scale=scale,
        mesh_width=mesh[0],
        mesh_height=mesh[1],
        cluster_width=cluster[0],
        cluster_height=cluster[1],
        rrt_entries=rrt_entries,
    )


def _geometry_dict(spec) -> dict[str, Any]:
    """Geometry keys for ``to_dict`` — emitted ONLY when non-default, so
    the serialized form (and therefore poison keys and legacy readers) of
    every pre-scenario spec is byte-identical to what it always was."""
    out: dict[str, Any] = {}
    if spec.mesh is not None:
        out["mesh"] = list(spec.mesh)
    if spec.cluster is not None:
        out["cluster"] = list(spec.cluster)
    if spec.rrt_entries is not None:
        out["rrt_entries"] = spec.rrt_entries
    return out


@dataclass(frozen=True)
class RunSpec:
    """One (workload, policy) simulation request.

    A thin, wire-stable veneer over :class:`repro.scenario.Scenario`:
    validation and config compilation both route through the scenario it
    denotes, so a service submission fingerprints identically to the same
    run expressed as a YAML scenario, CLI flags or Session kwargs.
    """

    workload: str
    policy: str
    seed: int = 0
    scale: int = 64
    faults: str = ""
    strict: bool = False
    #: simulation backend; never changes results, so it is deliberately
    #: absent from the result-cache request key (see ``request_key``).
    kernel: str = "auto"
    #: scale-out geometry; ``None`` keeps the paper's 4x4 mesh / 2x2
    #: clusters / 64-entry RRTs (and keeps ``to_dict`` byte-identical to
    #: the pre-scenario wire format).
    mesh: tuple[int, int] | None = None
    cluster: tuple[int, int] | None = None
    rrt_entries: int | None = None

    kind = "run"

    def scenario(self):
        """The :class:`~repro.scenario.Scenario` this spec denotes."""
        from repro.scenario.model import Scenario

        return Scenario(
            name=self.label,
            workload=self.workload,
            policy=self.policy,
            machine=_machine_spec(
                self.scale, self.mesh, self.cluster, self.rrt_entries
            ),
            faults=self.faults,
            strict=self.strict,
            kernel=self.kernel,
            seed=self.seed,
        )

    def validate(self) -> None:
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not isinstance(self.scale, int) or isinstance(self.scale, bool):
            raise ValueError(
                f"scale must be a positive integer, got {self.scale!r}"
            )
        # Scenario validation compiles the config too, so a nonsense fault
        # spec or geometry is rejected at submission, not inside a worker.
        self.scenario().validate()

    def config(self):
        return self.scenario().to_config()

    def cells(self) -> list[tuple[str, str]]:
        return [(self.workload, self.policy)]

    @property
    def label(self) -> str:
        return f"{self.workload}/{self.policy}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "workload": self.workload,
            "policy": self.policy,
            "seed": self.seed,
            "scale": self.scale,
            "faults": self.faults,
            "strict": self.strict,
            "kernel": self.kernel,
            **_geometry_dict(self),
        }


@dataclass(frozen=True)
class SweepSpec:
    """A workloads x policies grid; each cell caches independently."""

    workloads: tuple[str, ...]
    policies: tuple[str, ...]
    seed: int = 0
    scale: int = 64
    faults: str = ""
    strict: bool = False
    kernel: str = "auto"
    mesh: tuple[int, int] | None = None
    cluster: tuple[int, int] | None = None
    rrt_entries: int | None = None

    kind = "sweep"

    def scenario(self):
        from repro.scenario.model import Scenario

        return Scenario(
            name=self.label,
            workloads=tuple(self.workloads),
            policies=tuple(self.policies),
            machine=_machine_spec(
                self.scale, self.mesh, self.cluster, self.rrt_entries
            ),
            faults=self.faults,
            strict=self.strict,
            kernel=self.kernel,
            seed=self.seed,
        )

    def validate(self) -> None:
        if not self.workloads or not self.policies:
            raise ValueError("sweep needs at least one workload and one policy")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not isinstance(self.scale, int) or isinstance(self.scale, bool):
            raise ValueError(
                f"scale must be a positive integer, got {self.scale!r}"
            )
        self.scenario().validate()

    def config(self):
        return self.scenario().to_config()

    def cells(self) -> list[tuple[str, str]]:
        return [(wl, pol) for wl in self.workloads for pol in self.policies]

    @property
    def label(self) -> str:
        return f"sweep:{len(self.workloads)}x{len(self.policies)}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "workloads": list(self.workloads),
            "policies": list(self.policies),
            "seed": self.seed,
            "scale": self.scale,
            "faults": self.faults,
            "strict": self.strict,
            "kernel": self.kernel,
            **_geometry_dict(self),
        }


def spec_from_scenario(scenario) -> RunSpec | SweepSpec:
    """Lower a :class:`~repro.scenario.Scenario` to a service spec.

    Multiprogrammed scenarios are rejected with a clear message — they
    need the merged-program execution path, which runs through
    ``Session``/``repro run``, not the cell-cached service.
    """
    m = scenario.machine
    geometry: dict[str, Any] = {}
    if (m.mesh_width, m.mesh_height) != (4, 4):
        geometry["mesh"] = (m.mesh_width, m.mesh_height)
    if (m.cluster_width, m.cluster_height) != (2, 2):
        geometry["cluster"] = (m.cluster_width, m.cluster_height)
    if m.rrt_entries is not None:
        geometry["rrt_entries"] = m.rrt_entries
    common = dict(
        seed=scenario.seed,
        scale=m.scale,
        faults=scenario.faults,
        strict=scenario.strict,
        kernel=scenario.kernel,
        **geometry,
    )
    if scenario.kind == "run":
        spec: RunSpec | SweepSpec = RunSpec(
            scenario.workload, scenario.policy, **common
        )
    elif scenario.kind == "sweep":
        spec = SweepSpec(
            tuple(scenario.workloads), tuple(scenario.policies), **common
        )
    else:
        raise ValueError(
            f"multiprog scenario {scenario.name!r} cannot run through the "
            "service (co-runners share one merged machine, which defeats "
            "per-cell caching); run it with 'repro run' or "
            "repro.run_scenario()"
        )
    spec.validate()
    return spec


def _parse_wire_geometry(raw: dict[str, Any]) -> dict[str, Any]:
    from repro.scenario.model import _parse_geometry

    out: dict[str, Any] = {}
    if raw.get("mesh") is not None:
        out["mesh"] = _parse_geometry(raw["mesh"], "mesh")
    if raw.get("cluster") is not None:
        out["cluster"] = _parse_geometry(raw["cluster"], "cluster")
    if raw.get("rrt_entries") is not None:
        rrt = raw["rrt_entries"]
        if not isinstance(rrt, int) or rrt < 1:
            raise ValueError(
                f"rrt_entries must be a positive integer, got {rrt!r}"
            )
        out["rrt_entries"] = rrt
    return out


def spec_from_dict(raw: dict[str, Any]) -> RunSpec | SweepSpec:
    """Parse a scenario body or a flat spec dict into a validated spec.

    A client submits ``{"scenario": {...}}`` (a scenario mapping) or
    ``{"scenario": "name"}`` (a curated-library name).  The flat form
    (``workload``/``policy``/``scale``/... at top level) is the internal
    wire form :meth:`RunSpec.to_dict` writes for worker payloads, fleet
    claims, queue shards and poison keys; the server refuses it from
    clients before it gets here.

    Raises plain :class:`ValueError` with a message naming the problem;
    the server maps it to a typed ``invalid-request`` envelope.
    """
    if not isinstance(raw, dict):
        raise ValueError("request body must be a JSON object")
    kind = raw.get("kind", "run")
    if "scenario" in raw:
        from repro.scenario.loader import load_scenario
        from repro.scenario.model import parse_scenario

        body = raw["scenario"]
        if isinstance(body, str):
            scenario = load_scenario(body)
        else:
            scenario = parse_scenario(body, source="request")
        # multiprog falls through to spec_from_scenario's rejection, which
        # explains where such scenarios *can* run.
        if ("kind" in raw and scenario.kind != kind
                and scenario.kind != "multiprog"):
            raise ValueError(
                f"scenario {scenario.name!r} is a {scenario.kind} but was "
                f"submitted to the {kind} endpoint"
            )
        return spec_from_scenario(scenario)
    common = {
        "seed": raw.get("seed", 0),
        "scale": raw.get("scale", 64),
        "faults": raw.get("faults", ""),
        "strict": bool(raw.get("strict", False)),
        "kernel": str(raw.get("kernel", "auto")),
        **_parse_wire_geometry(raw),
    }
    if kind == "run":
        if "workload" not in raw or "policy" not in raw:
            raise ValueError("run request needs 'workload' and 'policy'")
        spec: RunSpec | SweepSpec = RunSpec(
            str(raw["workload"]), str(raw["policy"]), **common
        )
    elif kind == "sweep":
        workloads = raw.get("workloads")
        policies = raw.get("policies")
        if not isinstance(workloads, list) or not isinstance(policies, list):
            raise ValueError(
                "sweep request needs 'workloads' and 'policies' lists"
            )
        spec = SweepSpec(
            tuple(str(w) for w in workloads),
            tuple(str(p) for p in policies),
            **common,
        )
    else:
        raise ValueError(f"unknown job kind {kind!r} (expected 'run' or 'sweep')")
    spec.validate()
    return spec


class EventBuffer:
    """Thread-safe, bounded, cursor-addressed progress feed.

    Worker threads append; the NDJSON endpoint reads with
    :meth:`since` and polls until :attr:`closed`.  Past ``capacity`` the
    oldest events are discarded (counted in :attr:`dropped`) — a slow
    consumer can lose history, never correctness.
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

    def append(self, item: dict[str, Any]) -> None:
        with self._lock:
            self._items.append(item)
            overflow = len(self._items) - self.capacity
            if overflow > 0:
                del self._items[:overflow]
                self._base += overflow
                self.dropped += overflow

    def since(self, cursor: int) -> tuple[list[dict[str, Any]], int]:
        """Events at or after ``cursor`` plus the next cursor to poll from."""
        with self._lock:
            start = max(0, cursor - self._base)
            items = self._items[start:]
            return items, self._base + len(self._items)

    def close(self) -> None:
        with self._lock:
            self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed


@dataclass
class Job:
    """One accepted submission and everything that happened to it."""

    id: str
    spec: RunSpec | SweepSpec
    state: str = "queued"
    attempts: int = 0
    evictions: int = 0
    worker_deaths: int = 0   # attempts that killed their worker process
    cache_hits: int = 0      # cells answered from the cache
    simulated: int = 0       # cells this job actually simulated
    cells_done: int = 0
    cells_total: int = 1
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

    def to_dict(self) -> dict[str, Any]:
        """The job record served by status endpoints (result separate)."""
        out: dict[str, Any] = {
            "id": self.id,
            "kind": self.spec.kind,
            "spec": self.spec.to_dict(),
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
        #: poison-quarantined spec keys -> diagnostic bundle path.
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
        for job in self.jobs.values():
            if job.state in ("queued", "running"):
                job.state = "preempted"
                job.events.append({"kind": "preempted", "reason": "draining"})
                job.events.close()
                self.preempted += 1
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
        return sum(
            1 for j in self.jobs.values() if j.state in ("queued", "running")
        )

    def submit(self, spec: RunSpec | SweepSpec) -> Job:
        """Admit a job (or answer it from cache); raises :class:`ServiceError`.

        The all-cells-cached fast path completes the job synchronously —
        a duplicate submission never even enters the queue.
        """
        if self.draining:
            raise ServiceError(
                "draining", "server is shutting down; resubmit elsewhere",
                retry_after=5.0,
            )
        if self._ready is None:
            raise ServiceError("internal", "job queue is not started")
        poison_key = self._poison_key(spec)
        if poison_key in self.poisoned:
            raise ServiceError(
                "poisoned",
                f"job {spec.label!r} (key {poison_key}) is quarantined: it "
                f"repeatedly killed its worker process; diagnostic bundle "
                f"at {self.poisoned[poison_key]}",
            )
        if self.fleet is not None:
            fleet_bundle = self.fleet.poisoned(poison_key)
            if fleet_bundle is not None:
                raise ServiceError(
                    "poisoned",
                    f"job {spec.label!r} (key {poison_key}) is quarantined "
                    f"fleet-wide as poison; diagnostic bundle at "
                    f"{fleet_bundle}",
                )
        job = Job(
            id=uuid.uuid4().hex[:12], spec=spec,
            cells_total=len(spec.cells()),
        )
        if self._cache_fast_path(job):
            self.submitted += 1
            self.jobs[job.id] = job
            return job
        self.breaker.admit(self.depth())
        self.submitted += 1
        self.jobs[job.id] = job
        job.events.append({"kind": "queued", "label": spec.label})
        if self.fleet is not None:
            # Visible in this host's fleet queue shard from this moment:
            # an idle peer may steal it, in which case _acquire_claim
            # below waits for the thief and completes from the store.
            self.fleet.enqueue(poison_key, spec.to_dict(), job_id=job.id)
        self._ready.put_nowait(job.id)
        return job

    def get(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise ServiceError("not-found", f"unknown job id {job_id!r}")
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
        cfg = job.spec.config()
        cells = job.spec.cells()
        keys = {
            cell: request_key(cfg, cell[0], cell[1], job.spec.seed)
            for cell in cells
        }
        if not all(keys[cell] in self.cache for cell in cells):
            return False
        for cell in cells:
            cached = self.cache.get(keys[cell])
            if cached is None:  # corrupt entry surfaced mid-check: recompute
                return False
            job.partial[f"{cell[0]}/{cell[1]}"] = cached
            job.cache_hits += 1
            job.cells_done += 1
            job.events.append(
                {"kind": "cell_done", "cell": f"{cell[0]}/{cell[1]}",
                 "cache_hit": True}
            )
        self._finish_ok(job)
        return True

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
            self._adopt(handle, claim.get("spec"), origin="reclaim")
        if self.depth() == 0:
            # Idle: pull at most one job per tick from a dead or clearly
            # more-loaded peer; bounded so a thundering herd of idle
            # hosts cannot strip a healthy peer bare in one beat.
            for handle, entry in self.fleet.steal(self.depth(), limit=1):
                self._adopt(handle, entry.get("spec"), origin="steal")

    def _adopt(self, handle: Any, spec_dict: Any, origin: str) -> None:
        """Admit a reclaimed/stolen claim as a client-invisible ghost job.

        The ghost resumes from the shared spool snapshot exactly like a
        local crash retry would: the snapshot is keyed by ``request_key``
        and identity-checked on load, so resuming a dead peer's work is
        byte-identical to the peer having finished it.
        """
        assert self.fleet is not None and self._ready is not None
        try:
            spec = spec_from_dict(dict(spec_dict or {}))
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
            id=uuid.uuid4().hex[:12], spec=spec,
            cells_total=len(spec.cells()),
            origin=origin, fleet_claim=handle,
        )
        self.adopted += 1
        self.jobs[job.id] = job
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
        job.state = "running"
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
        key = self._poison_key(job.spec)
        poll = max(0.05, min(0.5, self.fleet.lease_timeout / 10))
        while True:
            if self.draining:
                job.state = "preempted"
                job.events.append(
                    {"kind": "preempted", "reason": "draining"}
                )
                job.events.close()
                self.preempted += 1
                return False
            if self.cache is not None and self._cache_fast_path(job):
                self.fleet.remove_queue_entry(key)
                return False
            bundle = self.fleet.poisoned(key)
            if bundle is not None:
                self.fleet.remove_queue_entry(key)
                self._fail(job, ServiceError(
                    "poisoned",
                    f"job {job.spec.label!r} (key {key}) was quarantined "
                    f"fleet-wide as poison; diagnostic bundle at {bundle}",
                ))
                return False
            handle = self.fleet.try_claim(key, job.spec.to_dict())
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
            except SnapshotMismatchError as exc:
                # A stale spool snapshot slipped past the load check;
                # _simulate_cell already quarantined it — rerun fresh.
                job.spent += time.monotonic() - t0
                job.events.append(
                    {"kind": "snapshot_discarded", "reason": str(exc)}
                )
                continue
            except Exception as exc:  # noqa: BLE001 - classified below
                job.spent += time.monotonic() - t0
                if await self._maybe_retry(job, exc):
                    continue
                return
            job.spent += time.monotonic() - t0
            if self.pool is not None:
                self.pool.note_ok()
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
            job.state = "preempted"
            job.events.append(
                {"kind": "preempted", "reason": "draining",
                 "snapshot": str(exc.path),
                 "tasks_completed": exc.tasks_completed}
            )
            job.events.close()
            self.preempted += 1
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
        job.state = "queued"
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
        delay = retry_delay(job.attempts, self.backoff, rng=self._rng)
        job.events.append(
            {"kind": "retry", "after": round(delay, 3),
             "error": error_name}
        )
        if delay:
            await asyncio.sleep(delay)
        return True

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
                job.state = "preempted"
                job.events.append(
                    {"kind": "preempted", "reason": "draining"}
                )
                job.events.close()
                self.preempted += 1
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
            delay = retry_delay(job.attempts, self.backoff, rng=self._rng)
            job.events.append(
                {"kind": "retry", "after": round(delay, 3),
                 "error": "WorkerDied", "reason": died.reason}
            )
            if delay:
                await asyncio.sleep(delay)
            return True
        self._fail(job, ServiceError("job-failed", f"WorkerDied: {died}"))
        return False

    def _poison_key(self, spec: RunSpec | SweepSpec) -> str:
        """Stable identity of a submission for the poison registry."""
        blob = json.dumps(spec.to_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]

    def _quarantine_poison(self, job: Job, died: WorkerDied) -> None:
        """Quarantine a job that keeps killing workers; write diagnostics.

        The bundle under ``spool/poison/`` names everything an operator
        needs to reproduce offline; the registry entry rejects any
        resubmission of the same spec for this server's lifetime.
        """
        key = self._poison_key(job.spec)
        bundle_dir = self.spool / "poison"
        bundle_dir.mkdir(parents=True, exist_ok=True)
        bundle_path = bundle_dir / f"{key}.json"
        tail, _ = job.events.since(0)
        bundle = {
            "kind": "poison-quarantine",
            "job_key": key,
            "job_id": job.id,
            "label": job.spec.label,
            "spec": job.spec.to_dict(),
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
            f"job {job.spec.label!r} killed {job.worker_deaths} worker "
            f"processes and is quarantined as poison; diagnostic bundle "
            f"at {bundle_path}",
        ))

    def _finish_ok(self, job: Job) -> None:
        job.result = self._assemble_result(job)
        job.state = "done"
        job.finished = time.time()
        self.completed += 1
        job.events.append(
            {"kind": "done", "cache_hits": job.cache_hits,
             "simulated": job.simulated}
        )
        job.events.close()

    def _fail(self, job: Job, err: ServiceError) -> None:
        job.error = err.to_dict()
        job.state = "failed"
        job.finished = time.time()
        self.failed += 1
        job.events.append({"kind": "failed", "error": job.error})
        job.events.close()

    def _assemble_result(self, job: Job) -> dict[str, Any]:
        if job.spec.kind == "run":
            return job.partial[job.spec.label]
        from repro.experiments.harness import config_fingerprint
        from repro.experiments.serialize import SCHEMA_VERSION

        return {
            "schema_version": SCHEMA_VERSION,
            "runs": {cell: job.partial[cell] for cell in sorted(job.partial)},
            "failures": [],
            "sweep": {
                "config_sha256": config_fingerprint(job.spec.config()),
                "seed": job.spec.seed,
                "scale": job.spec.scale,
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
