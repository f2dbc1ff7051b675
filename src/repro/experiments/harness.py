"""Crash-tolerant parallel sweep harness: plan, shards and merge.

Long simulation campaigns are the dominant cost of reproduction work, and a
serial double loop loses the whole campaign to one hung or crashed run.
This module runs each :class:`Job` — one ``(workload, policy, seed)`` cell
of a sweep — through one scheduling loop that provides:

* **Process isolation** — with ``workers > 1`` or a ``timeout``, each
  attempt is forked and supervised by the attempt path the service pool
  uses too (:mod:`repro.template`: one child entry, one supervisor), so a
  segfault, ``os._exit``, or unbounded hang in one run cannot take down
  the sweep, and a ``kill -9`` of the sweep stops its workers at their
  next task boundary.  The child stamps a heartbeat and fires the
  ``worker.*`` failpoints at every task boundary; the sweep enforces no
  lease on it — ``timeout`` is its hang guard.
* **Per-job wall-clock timeouts** — at its deadline an attempt is asked
  to checkpoint and stop, :data:`TIMEOUT_GRACE` seconds later it is
  killed, and the attempt is recorded as timed out.
* **Bounded retries with exponential backoff** — transient failures
  (worker crashes, timeouts, I/O errors) are retried up to ``retries``
  times with ``backoff * 2**(attempt-1)`` seconds between attempts;
  deterministic errors (:data:`repro.template.PERMANENT_ERRORS`) fail
  immediately.
* **Graceful degradation** — a job that exhausts its retries becomes a
  structured :class:`FailedRun` (error class, message, traceback, attempt
  count, elapsed time) in the outcome instead of an exception that aborts
  the sweep.
* **Incremental checkpointing** — with a ``run_dir``, every finished job is
  written atomically as one JSON shard under ``run_dir/shards/`` and the
  sweep identity (config hash, job list, request) is kept in
  ``run_dir/manifest.json``; ``resume=True`` skips jobs with a valid "ok"
  shard and re-runs only the others.
* **Snapshot resume** — a job's snapshot lives at
  ``run_dir/snapshots/<shard stem>.snap``.  A retry, and every job of a
  ``resume=True`` sweep, continues from it byte-identically when a valid
  one is on disk — whether a preemption, a timeout or a periodic
  ``checkpoint_every`` save left it; a corrupt snapshot, or one of another
  identity, is quarantined to ``*.corrupt`` and the job reruns from
  scratch.
* **Graceful preemption** — SIGTERM/SIGINT (or an expired ``deadline``)
  makes every in-flight job write a mid-run simulation snapshot at its
  next task boundary (see :mod:`repro.snapshot`), records it as a
  ``"preempted"`` shard, joins all workers, and writes the final manifest
  with sweep status ``"interrupted"``.

With ``workers=1`` and no timeout the attempts run in this process (no
subprocess overhead), through the same loop, verdicts and retries — that
is the mode :meth:`repro.api.Session.suite` uses by default, so library
callers pay nothing for the robustness they don't ask for.
"""

from __future__ import annotations

import hashlib
import json
import signal
import threading
import time
from collections import deque
from concurrent import futures
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro import template
from repro.experiments.serialize import (
    SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    SchemaVersionError,
)
from repro.ioutils import atomic_write
from repro.snapshot import (
    CorruptSnapshotError,
    SnapshotMismatchError,
    config_sha256,
    read_snapshot_file,
    verify_meta,
)
from repro.template import retry_delay

__all__ = [
    "Job",
    "FailedRun",
    "CompletedRun",
    "PreemptedRun",
    "SweepOutcome",
    "SweepFailure",
    "run_sweep",
    "load_manifest",
    "config_fingerprint",
    "MANIFEST_NAME",
    "SHARD_DIR",
    "SNAPSHOT_DIR",
]

MANIFEST_NAME = "manifest.json"
SHARD_DIR = "shards"
SNAPSHOT_DIR = "snapshots"

#: grace period (seconds) a preempting sweep gives its workers to reach a
#: task boundary and write their snapshots before they are killed.
PREEMPT_GRACE = 10.0

#: seconds a worker past its ``timeout`` gets to checkpoint and stop
#: before it is killed.
TIMEOUT_GRACE = 1.0


@dataclass(frozen=True)
class Job:
    """One cell of a sweep."""

    workload: str
    policy: str
    seed: int = 0

    @property
    def label(self) -> str:
        return f"{self.workload}/{self.policy}"

    @property
    def shard_name(self) -> str:
        return f"{self.workload}__{self.policy}__s{self.seed}.json"


@dataclass
class FailedRun:
    """A job that exhausted its retries, as a structured record."""

    workload: str
    policy: str
    seed: int
    error: str  # exception class name, "Timeout", or "WorkerCrash"
    message: str
    traceback: str
    attempts: int
    elapsed: float
    timed_out: bool = False

    def to_dict(self) -> dict[str, Any]:
        d = asdict(self)
        d["elapsed"] = round(self.elapsed, 3)
        return d

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "FailedRun":
        return cls(**{k: raw[k] for k in cls.__dataclass_fields__ if k in raw})


@dataclass
class CompletedRun:
    """A finished job: live :class:`ExperimentResult`, or the flattened
    dict loaded back from a checkpoint shard on resume."""

    workload: str
    policy: str
    seed: int
    attempts: int
    elapsed: float
    result: Any
    from_checkpoint: bool = False

    def result_dict(self) -> dict[str, Any]:
        if isinstance(self.result, dict):
            return self.result
        from repro.experiments.serialize import result_to_dict

        return result_to_dict(self.result)


@dataclass
class PreemptedRun:
    """A job stopped mid-run with its snapshot safely on disk.

    Not a failure: a ``resume=True`` sweep restores the snapshot and
    continues the job to a byte-identical result.
    """

    workload: str
    policy: str
    seed: int
    snapshot: str
    tasks_done: int
    attempts: int = 1
    elapsed: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        d = asdict(self)
        d["elapsed"] = round(self.elapsed, 3)
        return d


@dataclass
class SweepOutcome:
    """Everything a sweep produced, including its failures."""

    completed: list[CompletedRun] = field(default_factory=list)
    failures: list[FailedRun] = field(default_factory=list)
    #: jobs checkpointed mid-run by a signal or deadline (resumable).
    preempted: list[PreemptedRun] = field(default_factory=list)
    #: True when the sweep stopped early (signal or deadline) rather than
    #: draining its plan; the manifest records status "interrupted".
    interrupted: bool = False
    wall_time: float = 0.0

    @property
    def ok(self) -> int:
        return len(self.completed)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def timed_out(self) -> int:
        return sum(1 for f in self.failures if f.timed_out)

    @property
    def retried(self) -> int:
        return sum(1 for r in self.completed if r.attempts > 1) + sum(
            1 for f in self.failures if f.attempts > 1
        )

    @property
    def from_checkpoint(self) -> int:
        return sum(1 for r in self.completed if r.from_checkpoint)

    def results(self) -> dict[tuple[str, str], Any]:
        """Completed results keyed ``(workload, policy)``."""
        return self._merged(lambda run: run.result)

    def result_dicts(self) -> dict[tuple[str, str], dict[str, Any]]:
        """Like :meth:`results` but every value flattened to a dict."""
        return self._merged(CompletedRun.result_dict)

    def _merged(self, value: Callable[[CompletedRun], Any]) -> dict:
        out: dict[tuple[str, str], Any] = {}
        for run in self.completed:
            key = (run.workload, run.policy)
            if key in out:
                raise ValueError(
                    f"duplicate run {run.workload}/{run.policy}: merging by "
                    "(workload, policy) needs one seed per pair"
                )
            out[key] = value(run)
        return out


class SweepFailure(RuntimeError):
    """Raised by :meth:`repro.api.Session.suite` when jobs failed after
    retries (the CLI reports failures instead of raising)."""

    def __init__(self, failures: Iterable[FailedRun]):
        self.failures = list(failures)
        shown = ", ".join(
            f"{f.workload}/{f.policy} ({f.error})" for f in self.failures[:5]
        )
        extra = len(self.failures) - 5
        if extra > 0:
            shown += f" and {extra} more"
        super().__init__(f"{len(self.failures)} sweep job(s) failed: {shown}")


def config_fingerprint(cfg: Any) -> str:
    """Stable hash of a sweep's configuration, stored in the manifest so a
    resume against a differently-configured run directory fails loudly.

    For a config dataclass this is :func:`repro.snapshot.config_sha256` —
    the fingerprint snapshots and the service cache use; no config holds
    a kernel, so a sweep resumes under any ``REPRO_KERNEL``.  Opaque
    configs (test stubs pass strings or paths) hash their ``repr``.
    """
    if is_dataclass(cfg) and not isinstance(cfg, type):
        return config_sha256(cfg)
    text = json.dumps(repr(cfg))
    return hashlib.sha256(text.encode()).hexdigest()


def _default_runner(
    job: Job, cfg: Any, *, checkpoint=None, resume_from=None
) -> Any:
    from repro.api import _run_one

    return _run_one(
        job.workload, job.policy, cfg, seed=job.seed,
        checkpoint=checkpoint, resume_from=resume_from,
    )


def _sweep_attempt(attempt: template.Attempt) -> Any:
    """One attempt of a sweep job: the body of a forked attempt, or of an
    in-process one.  Under a run directory the runner gets a checkpointer
    and, on a retry or a resumed sweep, the job's snapshot to continue."""
    p = attempt.payload
    job, cfg, runner, snapshot = p["job"], p["cfg"], p["runner"], p["snapshot"]
    if snapshot is None:
        return runner(job, cfg)

    def run(resume_from: str | None) -> Any:
        ck = attempt.checkpointer(
            snapshot, every=p["every"], deadline=p["deadline"],
            preempt_after_tasks=p["preempt_after_tasks"],
        )
        return runner(job, cfg, checkpoint=ck, resume_from=resume_from)

    return template.resume_or_fresh(run, snapshot if p["resume"] else None)


def _continues_from(snapshot: Path, job: Job, cfg: Any) -> bool:
    """Whether ``job``'s attempt will continue from ``snapshot``: the file
    is there, its framing is intact and it carries this job's identity.
    (The attempt itself quarantines one that is not.)"""
    try:
        payload = read_snapshot_file(snapshot)
        verify_meta(
            payload, workload=job.workload, policy=job.policy, seed=job.seed,
            cfg=cfg,
        )
    except (OSError, CorruptSnapshotError, SnapshotMismatchError):
        return False
    return True


@dataclass
class _Pending:
    job: Job
    attempt: int = 1
    ready_at: float = 0.0
    spent: float = 0.0  # wall time burned by earlier attempts


def run_sweep(
    jobs: Sequence[Job | tuple],
    cfg: Any = None,
    *,
    workers: int = 1,
    timeout: float | None = None,
    retries: int = 1,
    backoff: float = 0.5,
    run_dir: str | Path | None = None,
    resume: bool = False,
    runner: Callable[..., Any] | None = None,
    on_event: Callable[[str, Job, str], None] | None = None,
    request: dict[str, Any] | None = None,
    checkpoint_every: int = 0,
    deadline: float | None = None,
    preempt_after_tasks: int = 0,
) -> SweepOutcome:
    """Run a sweep plan; never raises for individual job failures.

    Attempts are forked from the template of :mod:`repro.template`
    whenever ``workers > 1`` or a ``timeout`` is set, and run in this
    process otherwise; the template is stopped before this returns unless
    another user in the process still has a live attempt.  ``runner``
    defaults to :meth:`Session.run`'s core on ``cfg``; tests inject
    module-level stubs (``runner`` and ``cfg`` are pickled to each
    worker).  A job past its ``timeout`` is recorded as timed out and
    retried under ``retries``.  Every runner takes ``(job, cfg)`` plus the
    ``checkpoint``/``resume_from`` keywords a run directory adds.
    ``on_event`` receives ``(kind, job, detail)`` progress callbacks with
    kinds ``start``/``ok``/``retry``/``failed``/``timeout``/``skipped``/
    ``resumed``/``preempted``/``interrupted``.  ``request`` is recorded
    verbatim in the manifest so a resume can reconstruct the original CLI
    invocation.

    Preemption: while the sweep runs (from the main thread), SIGTERM and
    SIGINT are trapped — in-flight jobs snapshot at their next task
    boundary, workers are joined, and the function *returns* an outcome
    with ``interrupted=True`` instead of raising ``KeyboardInterrupt``.
    ``checkpoint_every`` adds periodic per-job snapshots, ``deadline``
    (seconds of sweep wall time) triggers the same graceful stop without a
    signal, and ``preempt_after_tasks`` is the deterministic test hook.
    Simulation snapshots need a ``run_dir`` (they live under
    ``run_dir/snapshots/``); without one a signal still stops the sweep
    cleanly, but mid-run progress is lost.
    """
    plan = [j if isinstance(j, Job) else Job(*j) for j in jobs]
    if len(set(plan)) != len(plan):
        raise ValueError("duplicate jobs in sweep plan")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if backoff < 0:
        raise ValueError("backoff must be >= 0")
    if timeout is not None and timeout <= 0:
        raise ValueError("timeout must be positive")
    if checkpoint_every < 0:
        raise ValueError("checkpoint_every must be >= 0")
    if deadline is not None and deadline <= 0:
        raise ValueError("deadline must be positive")
    isolated = workers > 1 or timeout is not None
    if resume and run_dir is None:
        raise ValueError("resume requires the run directory of a prior sweep")
    run = runner if runner is not None else _default_runner
    emit = on_event if on_event is not None else (lambda kind, job, detail: None)

    outcome = SweepOutcome()
    pending = list(plan)
    shard_dir: Path | None = None
    snap_dir: Path | None = None
    rd = Path(run_dir) if run_dir is not None else None

    def snapshot_of(job: Job) -> Path | None:
        if snap_dir is None:
            return None
        return snap_dir / f"{Path(job.shard_name).stem}.snap"

    if rd is not None:
        snap_dir = rd / SNAPSHOT_DIR
        snap_dir.mkdir(parents=True, exist_ok=True)
        shard_dir = rd / SHARD_DIR
        shard_dir.mkdir(parents=True, exist_ok=True)
        if resume:
            manifest = load_manifest(rd)
            recorded = manifest.get("config_sha256")
            fingerprint = config_fingerprint(cfg)
            if recorded and recorded != fingerprint:
                raise ValueError(
                    f"cannot resume {rd}: the run directory was created "
                    f"with a different configuration (config_sha256 "
                    f"{recorded[:12]}… != {fingerprint[:12]}…)"
                )
            pending = []
            for job in plan:
                rec = _load_shard(shard_dir / job.shard_name)
                if rec is not None:
                    outcome.completed.append(
                        CompletedRun(
                            job.workload,
                            job.policy,
                            job.seed,
                            attempts=rec.get("attempts", 1),
                            elapsed=rec.get("elapsed", 0.0),
                            result=rec["result"],
                            from_checkpoint=True,
                        )
                    )
                    emit("skipped", job, "already checkpointed")
                    continue
                snapshot = snapshot_of(job)
                if _continues_from(snapshot, job, cfg):
                    emit("resumed", job, f"continuing from snapshot {snapshot}")
                pending.append(job)
        _write_manifest(rd, plan, cfg, request)

    def complete(job: Job, result: Any, attempts: int, elapsed: float) -> None:
        done = CompletedRun(
            job.workload, job.policy, job.seed,
            attempts=attempts, elapsed=elapsed, result=result,
        )
        outcome.completed.append(done)
        if shard_dir is not None:
            _write_shard(
                shard_dir, job,
                {"status": "ok", "attempts": attempts,
                 "elapsed": round(elapsed, 3), "result": done.result_dict()},
            )
        detail = f"{elapsed:.2f}s"
        if attempts > 1:
            detail += f" after {attempts} attempts"
        emit("ok", job, detail)

    def fail(
        job: Job, error: str, message: str, tb: str,
        attempts: int, elapsed: float, timed_out: bool,
    ) -> None:
        rec = FailedRun(
            job.workload, job.policy, job.seed,
            error=error, message=message, traceback=tb,
            attempts=attempts, elapsed=elapsed, timed_out=timed_out,
        )
        outcome.failures.append(rec)
        if shard_dir is not None:
            _write_shard(
                shard_dir, job,
                {"status": "failed", "attempts": attempts,
                 "elapsed": round(elapsed, 3), "failure": rec.to_dict()},
            )
        emit("timeout" if timed_out else "failed", job,
             f"{error}: {message}"[:200])

    def preempted(
        job: Job, snapshot: str, tasks_done: int, attempts: int, elapsed: float
    ) -> None:
        rec = PreemptedRun(
            job.workload, job.policy, job.seed,
            snapshot=str(snapshot), tasks_done=tasks_done,
            attempts=attempts, elapsed=elapsed,
        )
        outcome.preempted.append(rec)
        if shard_dir is not None:
            _write_shard(
                shard_dir, job,
                {"status": "preempted", "attempts": attempts,
                 "elapsed": round(elapsed, 3),
                 "snapshot": str(snapshot), "tasks_done": tasks_done},
            )
        emit("preempted", job, f"snapshot after {tasks_done} tasks")

    stop = threading.Event()
    deadline_at = time.monotonic() + deadline if deadline is not None else None
    queue: deque[_Pending] = deque(_Pending(job) for job in pending)

    def payload_for(item: _Pending) -> dict[str, Any]:
        snapshot = snapshot_of(item.job)
        return {
            "label": item.job.label,
            "attempt": item.attempt,
            "start_sites": ("harness.worker.crash", "harness.worker.slow"),
            "checkpoints": snapshot is not None,
            "job": item.job,
            "cfg": cfg,
            "runner": run,
            "snapshot": None if snapshot is None else str(snapshot),
            "resume": resume or item.attempt > 1,
            "every": checkpoint_every,
            "deadline": deadline_at,
            "preempt_after_tasks": preempt_after_tasks,
        }

    def settle(item: _Pending, verdict: tuple, elapsed: float,
               timed_out: bool) -> None:
        """Complete, retry, fail or record an attempt, forked or not, from
        its verdict."""
        spent = item.spent + elapsed
        kind = verdict[0]
        if kind == "ok":
            complete(item.job, verdict[1], item.attempt, spent)
            return
        timed_out = timed_out and not stop.is_set()
        if timed_out:
            # Past its deadline: a Timeout, whatever the stop request made
            # it reply; a snapshot it left is where the retry continues.
            error, message, tb, permanent = (
                "Timeout", f"worker exceeded the {timeout}s deadline", "", False
            )
        elif kind == "preempted":
            preempted(item.job, verdict[1], verdict[2], item.attempt, spent)
            return
        elif kind == "error":
            _, error, message, tb, permanent = verdict
        elif stop.is_set():
            # Killed before reaching a checkpoint (or keeping none): no
            # shard is written, so a resume simply reruns the job.
            emit("interrupted", item.job, "stopped before reaching a checkpoint")
            return
        else:  # died without a word: native crash, os._exit, signal
            error, message, tb, permanent = (
                "WorkerCrash",
                f"worker exited with code {verdict[1]} before reporting a result",
                "", False,
            )
        if not permanent and not stop.is_set() and item.attempt <= retries:
            delay = retry_delay(item.attempt, backoff)
            queue.append(_Pending(item.job, item.attempt + 1,
                                  time.monotonic() + delay, spent))
            emit("retry", item.job, f"attempt {item.attempt}: {error}")
        else:
            fail(item.job, error, message, tb, item.attempt, spent, timed_out)

    # Signal hygiene: while the sweep runs, SIGTERM/SIGINT mean "checkpoint
    # everything in flight, join every worker, return cleanly" — never an
    # exception that strands children or a half-written run directory.
    # Only the main thread can install handlers; embeddings running the
    # sweep elsewhere keep deadline/periodic checkpointing.
    live: set[Any] = set()  # in-flight attempts' preempt targets

    def _on_signal(signum, frame):
        stop.set()
        for target in list(live):
            target.request_preempt()

    old_handlers: dict[int, Any] = {}
    try:
        for signum in (signal.SIGTERM, signal.SIGINT):
            old_handlers[signum] = signal.signal(signum, _on_signal)
    except ValueError:  # pragma: no cover - not the main thread
        pass

    # The one scheduling loop.  Each ready job gets an attempt: in this
    # process when not isolated (one at a time; the signal handler
    # preempts it through ``live``), else forked by template.launch and
    # supervised on one of ``workers`` threads.  Both end in a verdict for
    # settle().  On a signal or the sweep deadline the loop drains: no
    # new launches, a preempt request to every attempt, PREEMPT_GRACE to
    # finish writing snapshots, then SIGKILL for stragglers.  Every child
    # is joined, and the template stopped if idle, before this returns.
    running: dict[Future, tuple[_Pending, template.AttemptHandle]] = {}
    pool = ThreadPoolExecutor(workers) if isolated else None
    draining = False
    grace_at = 0.0
    t0 = time.monotonic()
    try:
        while queue or running:
            now = time.monotonic()
            if deadline_at is not None and now >= deadline_at:
                stop.set()
            if stop.is_set() and not draining:
                draining = True
                grace_at = now + PREEMPT_GRACE
                while queue:
                    emit("interrupted", queue.popleft().job, "not started")
                for target in list(live):
                    target.request_preempt()
            if draining and now >= grace_at:
                for _, handle in running.values():
                    handle.kill()
            # Start every ready job while a slot is free; items still
            # backing off rotate to the back of the queue.
            for _ in range(len(queue)):
                if len(running) >= workers:
                    break
                item = queue.popleft()
                if item.ready_at > now:
                    queue.append(item)
                    continue
                if pool is None:
                    attempt = template.Attempt(payload_for(item))
                    live.add(attempt)
                    emit("start", item.job, f"attempt {item.attempt}")
                    started = time.monotonic()
                    verdict = template.verdict_of(_sweep_attempt, attempt)
                    live.discard(attempt)
                    settle(item, verdict, time.monotonic() - started, False)
                    break  # look at the clock and the signals again first
                handle = template.launch(_sweep_attempt, payload_for(item))
                live.add(handle)
                emit("start", item.job, f"attempt {item.attempt}")
                fut = pool.submit(
                    handle.supervise, None, budget=timeout, grace=TIMEOUT_GRACE
                )
                running[fut] = (item, handle)
            # Block until an attempt settles, or for at most a quarter
            # second so signals, the deadline and backoff windows are seen.
            if running:
                done, _ = futures.wait(
                    running, timeout=0.25, return_when=futures.FIRST_COMPLETED
                )
                for fut in done:
                    item, handle = running.pop(fut)
                    live.discard(handle)
                    try:
                        verdict = fut.result()
                    except template.WorkerDied as died:
                        verdict = ("died", died.exitcode)
                    settle(item, verdict, time.monotonic() - handle.started,
                           handle.timed_out)
            elif queue:
                soonest = min(item.ready_at for item in queue)
                if soonest > now:
                    time.sleep(min(soonest - now, 0.25))
    finally:
        # Belt and braces: whatever path exits this loop, no child of the
        # sweep survives it, and neither does an idle template.
        for _, handle in running.values():
            handle.kill()
        if pool is not None:
            pool.shutdown(wait=True)
        template.stop_idle_template()
        for signum, handler in old_handlers.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, TypeError):  # pragma: no cover
                pass
    outcome.interrupted = stop.is_set()
    outcome.wall_time = time.monotonic() - t0
    outcome.failures.sort(key=lambda f: (f.workload, f.policy, f.seed))
    outcome.preempted.sort(key=lambda p: (p.workload, p.policy, p.seed))
    if rd is not None:
        _write_manifest(rd, plan, cfg, request, outcome=outcome)
    return outcome


# --------------------------------------------------------------------------
# checkpoint shards and manifest


def _write_shard(shard_dir: Path, job: Job, record: dict[str, Any]) -> None:
    record = {
        "schema_version": SCHEMA_VERSION,
        "workload": job.workload,
        "policy": job.policy,
        "seed": job.seed,
        **record,
    }
    with atomic_write(shard_dir / job.shard_name) as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_shard(path: Path) -> dict[str, Any] | None:
    """A shard's record iff it is a valid, current, completed ("ok") shard;
    missing, corrupt, stale-schema, and failed shards all return ``None``
    so the job is simply re-run."""
    try:
        raw = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if (
        not isinstance(raw, dict)
        or raw.get("schema_version") not in SUPPORTED_SCHEMA_VERSIONS
    ):
        return None
    if raw.get("status") != "ok" or not isinstance(raw.get("result"), dict):
        return None
    return raw


def _write_manifest(
    run_dir: Path,
    plan: list[Job],
    cfg: Any,
    request: dict[str, Any] | None,
    outcome: SweepOutcome | None = None,
) -> None:
    doc: dict[str, Any] = {
        "kind": "sweep-manifest",
        "schema_version": SCHEMA_VERSION,
        "config_sha256": config_fingerprint(cfg),
        "request": dict(request or {}),
        "jobs": [[j.workload, j.policy, j.seed] for j in plan],
    }
    if outcome is not None:
        status: dict[str, Any] = {}
        for run in outcome.completed:
            status[f"{run.workload}/{run.policy}"] = {
                "status": "ok",
                "attempts": run.attempts,
                "elapsed": round(run.elapsed, 3),
                "from_checkpoint": run.from_checkpoint,
            }
        for rec in outcome.failures:
            status[f"{rec.workload}/{rec.policy}"] = {
                "status": "timeout" if rec.timed_out else "failed",
                "attempts": rec.attempts,
                "elapsed": round(rec.elapsed, 3),
            }
        for pre in outcome.preempted:
            status[f"{pre.workload}/{pre.policy}"] = {
                "status": "preempted",
                "attempts": pre.attempts,
                "elapsed": round(pre.elapsed, 3),
                "snapshot": pre.snapshot,
                "tasks_done": pre.tasks_done,
            }
        doc["status"] = status
        doc["failures"] = [f.to_dict() for f in outcome.failures]
        doc["preempted"] = [p.to_dict() for p in outcome.preempted]
        doc["sweep_status"] = (
            "interrupted" if outcome.interrupted else "complete"
        )
        doc["wall_time_s"] = round(outcome.wall_time, 3)
    with atomic_write(Path(run_dir) / MANIFEST_NAME) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_manifest(run_dir: str | Path) -> dict[str, Any]:
    """The manifest of a prior sweep, validated; raises ``ValueError`` with
    a clear message when ``run_dir`` is not a resumable sweep directory."""
    path = Path(run_dir) / MANIFEST_NAME
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ValueError(
            f"{path} not found — {run_dir} is not a sweep run directory"
        ) from None
    except (OSError, ValueError) as exc:
        raise ValueError(f"corrupt sweep manifest {path}: {exc}") from exc
    if not isinstance(raw, dict) or raw.get("kind") != "sweep-manifest":
        raise ValueError(f"{path} is not a sweep manifest")
    if raw.get("schema_version") not in SUPPORTED_SCHEMA_VERSIONS:
        raise SchemaVersionError(raw.get("schema_version"), path=path)
    if not isinstance(raw.get("jobs"), list):
        raise ValueError(f"{path}: manifest is missing its job list")
    return raw
