"""Crash-tolerant parallel sweep harness.

Long simulation campaigns are the dominant cost of reproduction work, and a
serial double loop loses the whole campaign to one hung or crashed run.
This module runs each :class:`Job` — one ``(workload, policy, seed)`` cell
of a sweep — through a small job engine that provides:

* **Process isolation** — each attempt runs in its own ``multiprocessing``
  worker (spawn-safe: the worker entry point and all job arguments are
  module-level picklables), so a segfault, ``os._exit``, or unbounded hang
  in one run cannot take down the sweep.
* **Per-job wall-clock timeouts** — a worker past its deadline is
  terminated (then killed) and the attempt is recorded as timed out.
* **Bounded retries with exponential backoff** — transient failures
  (worker crashes, timeouts, I/O errors) are retried up to ``retries``
  times with ``backoff * 2**(attempt-1)`` seconds between attempts;
  deterministic errors (:data:`PERMANENT_ERRORS`) fail immediately.
* **Graceful degradation** — a job that exhausts its retries becomes a
  structured :class:`FailedRun` (error class, message, traceback, attempt
  count, elapsed time) in the outcome instead of an exception that aborts
  the sweep.
* **Incremental checkpointing** — with a ``run_dir``, every finished job is
  written atomically as one JSON shard under ``run_dir/shards/`` and the
  sweep identity (config hash, job list, request) is kept in
  ``run_dir/manifest.json``; ``resume=True`` skips jobs with a valid "ok"
  shard and re-runs only failed or missing ones.
* **Graceful preemption** — SIGTERM/SIGINT (or an expired ``deadline``)
  makes every in-flight job write a mid-run simulation snapshot at its
  next task boundary (see :mod:`repro.snapshot`), records it as a
  ``"preempted"`` shard pointing at ``run_dir/snapshots/``, terminates and
  joins all workers, and writes the final manifest with sweep status
  ``"interrupted"``.  A later ``resume=True`` sweep restores each
  preempted job from its snapshot and continues it byte-identically; a
  corrupt snapshot is quarantined to ``*.corrupt`` and the job simply
  reruns from scratch.

With ``workers=1`` and no timeout the engine degrades to an in-process
serial loop (no subprocess overhead) that still retries and checkpoints —
that is the mode :meth:`repro.api.Session.suite` uses by default, so
library callers pay nothing for the robustness they don't ask for.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import asdict, dataclass, field, is_dataclass
from multiprocessing import connection
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.experiments.serialize import (
    SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    SchemaVersionError,
)
from repro.ioutils import atomic_write
from repro.snapshot import (
    Checkpointer,
    PreemptedError,
    config_sha256,
    load_or_quarantine,
)

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
    "retry_delay",
    "PERMANENT_ERRORS",
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

#: error classes retrying cannot fix: deterministic programming or
#: configuration mistakes.  Everything else — worker crashes, timeouts,
#: OS-level I/O hiccups — is treated as transient and retried.
PERMANENT_ERRORS = (
    ValueError,
    TypeError,
    KeyError,
    AttributeError,
    NotImplementedError,
)


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
        out: dict[tuple[str, str], Any] = {}
        for run in self.completed:
            key = (run.workload, run.policy)
            if key in out:
                raise ValueError(
                    f"duplicate run {run.workload}/{run.policy}: merging by "
                    "(workload, policy) needs one seed per pair"
                )
            out[key] = run.result
        return out

    def result_dicts(self) -> dict[tuple[str, str], dict[str, Any]]:
        """Like :meth:`results` but every value flattened to a dict."""
        out: dict[tuple[str, str], dict[str, Any]] = {}
        for run in self.completed:
            key = (run.workload, run.policy)
            if key in out:
                raise ValueError(
                    f"duplicate run {run.workload}/{run.policy}: merging by "
                    "(workload, policy) needs one seed per pair"
                )
            out[key] = run.result_dict()
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


def retry_delay(
    attempt: int, backoff: float, *, cap: float = 30.0, rng: Any = None
) -> float:
    """Seconds to wait before retrying after ``attempt`` failures.

    Exponential (``backoff * 2**(attempt-1)``) capped at ``cap``; with an
    ``rng`` (anything exposing ``random()``), full-jitter in the upper
    half of the window so a thundering herd of retries decorrelates — the
    service queue passes one, the sweep harness keeps its deterministic
    schedule by passing none.
    """
    delay = min(cap, backoff * (2 ** (attempt - 1)))
    if rng is None:
        return delay
    return delay * (0.5 + 0.5 * rng.random())


def config_fingerprint(cfg: Any) -> str:
    """Stable hash of a sweep's configuration, stored in the manifest so a
    resume against a differently-configured run directory fails loudly.

    For a config dataclass this is :func:`repro.snapshot.config_sha256` —
    the fingerprint snapshots and the service cache use, which leaves out
    the kernel, so a sweep resumes under any ``--kernel``.  Opaque configs
    (test stubs pass strings or paths) hash their ``repr``.
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


def _build_checkpointer(ck_spec: dict[str, Any] | None) -> Checkpointer | None:
    if ck_spec is None:
        return None
    deadline = None
    if ck_spec.get("deadline_secs") is not None:
        deadline = time.monotonic() + max(0.0, ck_spec["deadline_secs"])
    return Checkpointer(
        ck_spec["path"],
        every=ck_spec.get("every", 0),
        deadline=deadline,
        preempt_after_tasks=ck_spec.get("preempt_after_tasks", 0),
    )


def _checkpoint_kwargs(ck: Checkpointer | None, ck_spec: dict[str, Any] | None):
    """Runner kwargs for a checkpointed attempt; quarantines bad snapshots."""
    if ck is None:
        return {}
    kwargs: dict[str, Any] = {"checkpoint": ck}
    resume_from = ck_spec.get("resume_from")
    if resume_from is not None and load_or_quarantine(resume_from) is not None:
        # The snapshot parses and checksums; meta validation happens in
        # the runner.  A corrupt file was just renamed *.corrupt and the
        # job restarts from scratch.
        kwargs["resume_from"] = resume_from
    return kwargs


def _worker_main(conn_w, runner, job: Job, cfg: Any, ck_spec=None) -> None:
    """Worker entry point (module-level so ``spawn`` can pickle it)."""
    from repro import failpoints

    # Chaos site: default action exits hard with status 99, emulating a
    # native crash.
    failpoints.fire("harness.worker.crash", job=job.label)
    ck = _build_checkpointer(ck_spec)
    if ck is not None:
        # SIGTERM (forwarded by the parent on its own SIGTERM/SIGINT, or
        # sent by a job scheduler) asks for checkpoint-then-exit at the
        # next task boundary.  SIGINT is ignored: a terminal Ctrl-C hits
        # the whole process group, and the parent coordinates it by
        # forwarding SIGTERM — dying on the raw SIGINT would lose the
        # snapshot.
        try:
            signal.signal(signal.SIGTERM, lambda signum, frame: ck.request_preempt())
            signal.signal(signal.SIGINT, signal.SIG_IGN)
        except ValueError:  # pragma: no cover - non-main-thread embedding
            pass
    # Chaos site: sleep before running, so an interrupting signal
    # reliably lands mid-flight.
    failpoints.fire("harness.worker.slow", job=job.label)
    try:
        result = runner(job, cfg, **_checkpoint_kwargs(ck, ck_spec))
        payload = ("ok", result)
    except PreemptedError as exc:
        payload = ("preempted", str(exc.path), exc.tasks_completed)
    except BaseException as exc:  # report everything, incl. SystemExit
        payload = (
            "error",
            type(exc).__name__,
            str(exc),
            traceback.format_exc(),
            isinstance(exc, PERMANENT_ERRORS),
        )
    try:
        conn_w.send(payload)
    except Exception as exc:  # e.g. the result failed to pickle
        try:
            conn_w.send(
                ("error", type(exc).__name__,
                 f"result could not be sent to the parent: {exc}",
                 traceback.format_exc(), True)
            )
        except Exception:
            pass
    finally:
        conn_w.close()


@dataclass
class _Pending:
    job: Job
    attempt: int = 1
    ready_at: float = 0.0
    spent: float = 0.0  # wall time burned by earlier attempts
    resume_from: str | None = None  # snapshot of a previously preempted run


@dataclass
class _Running:
    item: _Pending
    proc: Any
    recv: Any
    started: float
    deadline: float | None
    msg: tuple | None = None  # the worker's one message, once received


def _receive(r: _Running) -> None:
    """Take the worker's one message (if any has arrived) and close the
    pipe; the worker closes its end after that message, so nothing more
    can come."""
    if r.recv.closed:
        return
    try:
        if r.recv.poll():
            r.msg = r.recv.recv()
    except (EOFError, OSError):
        pass
    r.recv.close()


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

    Attempts run in spawned subprocess workers whenever ``workers > 1`` or
    a ``timeout`` is set, in the in-process serial loop otherwise.
    ``runner`` defaults to :meth:`Session.run`'s core on ``cfg``; tests
    inject module-level stubs (they must be picklable for spawn).  Every
    runner takes ``(job, cfg)`` plus the ``checkpoint``/``resume_from``
    keywords a run directory adds.  ``on_event``
    receives ``(kind, job, detail)`` progress callbacks with kinds
    ``start``/``ok``/``retry``/``failed``/``timeout``/``skipped``/
    ``resumed``/``preempted``/``interrupted``.  ``request`` is recorded verbatim in the
    manifest so a resume can reconstruct the original CLI invocation.

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
    pending = [_Pending(job) for job in plan]
    shard_dir: Path | None = None
    snap_dir: Path | None = None
    rd = Path(run_dir) if run_dir is not None else None
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
                snapshot = _load_preempted_snapshot(shard_dir / job.shard_name)
                if snapshot is not None:
                    emit("resumed", job, f"continuing from snapshot {snapshot}")
                pending.append(_Pending(job, resume_from=snapshot))
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

    def preempted_cb(
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

    def ck_spec_for(item: _Pending) -> dict[str, Any] | None:
        if snap_dir is None:
            return None
        snap_path = snap_dir / (Path(item.job.shard_name).stem + ".snap")
        secs = None
        if deadline_at is not None:
            secs = max(0.0, deadline_at - time.monotonic())
        return {
            "path": str(snap_path),
            "every": checkpoint_every,
            "deadline_secs": secs,
            "preempt_after_tasks": preempt_after_tasks,
            "resume_from": item.resume_from,
        }

    # Signal hygiene: while the sweep runs, SIGTERM/SIGINT mean "checkpoint
    # everything in flight, join every worker, return cleanly" — never an
    # exception that strands children or a half-written run directory.
    # Only the main thread can install handlers; embeddings running the
    # sweep elsewhere keep deadline/periodic checkpointing.
    active_ck: list[Checkpointer | None] = [None]  # inline mode's live job

    def _on_signal(signum, frame):
        stop.set()
        ck = active_ck[0]
        if ck is not None:
            ck.request_preempt()

    old_handlers: dict[int, Any] = {}
    try:
        for signum in (signal.SIGTERM, signal.SIGINT):
            old_handlers[signum] = signal.signal(signum, _on_signal)
    except ValueError:  # pragma: no cover - not the main thread
        pass

    t0 = time.monotonic()
    try:
        if isolated:
            _run_isolated(
                pending, cfg, run, workers, timeout, retries, backoff,
                complete, fail, emit,
                stop=stop, deadline_at=deadline_at,
                ck_spec_for=ck_spec_for, preempted=preempted_cb,
            )
        else:
            _run_inline(
                pending, cfg, run, retries, backoff, complete, fail, emit,
                stop=stop, deadline_at=deadline_at,
                ck_spec_for=ck_spec_for, preempted=preempted_cb,
                active_ck=active_ck,
            )
    finally:
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


def _run_inline(
    pending: list[_Pending],
    cfg: Any,
    runner: Callable[..., Any],
    retries: int,
    backoff: float,
    complete: Callable,
    fail: Callable,
    emit: Callable,
    stop: threading.Event | None = None,
    deadline_at: float | None = None,
    ck_spec_for: Callable[[_Pending], dict | None] | None = None,
    preempted: Callable | None = None,
    active_ck: list | None = None,
) -> None:
    """Serial in-process execution: retries and checkpoints, no isolation.

    The parent *is* the worker here, so the sweep's signal handler preempts
    the in-flight job through ``active_ck`` and this loop simply stops
    starting new jobs once ``stop`` is set.
    """
    for item in pending:
        if deadline_at is not None and time.monotonic() >= deadline_at:
            if stop is not None:
                stop.set()
        if stop is not None and stop.is_set():
            emit("interrupted", item.job, "not started")
            continue
        job = item.job
        attempt, spent = item.attempt, item.spent
        while True:
            emit("start", job, f"attempt {attempt}")
            ck_spec = ck_spec_for(item) if ck_spec_for is not None else None
            ck = _build_checkpointer(ck_spec)
            if active_ck is not None:
                active_ck[0] = ck
            t0 = time.monotonic()
            try:
                result = runner(job, cfg, **_checkpoint_kwargs(ck, ck_spec))
            except PreemptedError as exc:
                spent += time.monotonic() - t0
                # A deadline preemption stops the whole sweep; the
                # per-task test trigger only stops this job.
                if (
                    stop is not None
                    and ck is not None
                    and ck.deadline is not None
                    and time.monotonic() >= ck.deadline
                ):
                    stop.set()
                if preempted is not None:
                    preempted(job, str(exc.path), exc.tasks_completed,
                              attempt, spent)
                break
            except Exception as exc:
                spent += time.monotonic() - t0
                permanent = isinstance(exc, PERMANENT_ERRORS)
                interrupted = stop is not None and stop.is_set()
                if not permanent and not interrupted and attempt <= retries:
                    emit("retry", job, f"attempt {attempt}: {type(exc).__name__}")
                    if backoff:
                        time.sleep(retry_delay(attempt, backoff))
                    attempt += 1
                    continue
                fail(job, type(exc).__name__, str(exc),
                     traceback.format_exc(), attempt, spent, False)
                break
            finally:
                if active_ck is not None:
                    active_ck[0] = None
            spent += time.monotonic() - t0
            complete(job, result, attempt, spent)
            break


def _run_isolated(
    pending: list[_Pending],
    cfg: Any,
    runner: Callable[..., Any],
    workers: int,
    timeout: float | None,
    retries: int,
    backoff: float,
    complete: Callable,
    fail: Callable,
    emit: Callable,
    stop: threading.Event | None = None,
    deadline_at: float | None = None,
    ck_spec_for: Callable[[_Pending], dict | None] | None = None,
    preempted: Callable | None = None,
) -> None:
    """Parallel execution, one subprocess per attempt, deadline-enforced.

    When ``stop`` is set (signal) or ``deadline_at`` passes, the loop
    drains: no new launches, SIGTERM to every worker so each checkpoints
    at its next task boundary, a :data:`PREEMPT_GRACE` window to finish
    writing, then SIGKILL for stragglers.  Every child is joined before
    this function returns — an interrupted sweep leaves no orphans.
    """
    ctx = multiprocessing.get_context("spawn")
    queue: deque[_Pending] = deque(pending)
    running: dict[Any, _Running] = {}
    draining = False
    grace_deadline = 0.0

    def handle_failure(
        item: _Pending, error: str, message: str, tb: str,
        permanent: bool, timed_out: bool, spent: float,
    ) -> None:
        retryable = not permanent and item.attempt <= retries and not draining
        if retryable:
            delay = retry_delay(item.attempt, backoff)
            queue.append(
                _Pending(item.job, item.attempt + 1,
                         time.monotonic() + delay, spent, item.resume_from)
            )
            emit("retry", item.job, f"attempt {item.attempt}: {error}")
        else:
            fail(item.job, error, message, tb, item.attempt, spent, timed_out)

    try:
        while queue or running:
            now = time.monotonic()
            if (
                deadline_at is not None
                and stop is not None
                and not stop.is_set()
                and now >= deadline_at
            ):
                stop.set()
            if stop is not None and stop.is_set() and not draining:
                draining = True
                grace_deadline = now + PREEMPT_GRACE
                while queue:
                    item = queue.popleft()
                    emit("interrupted", item.job, "not started")
                for r in running.values():
                    if r.proc.is_alive():
                        # Checkpoint-aware workers trap this and snapshot
                        # at the next task boundary; others just exit.
                        r.proc.terminate()
            if draining and running and time.monotonic() >= grace_deadline:
                for r in running.values():
                    if r.proc.is_alive():
                        r.proc.kill()
            # Launch every ready pending job while a worker slot is free;
            # items still backing off rotate to the back of the queue.
            if not draining:
                for _ in range(len(queue)):
                    if len(running) >= workers:
                        break
                    item = queue.popleft()
                    if item.ready_at > now:
                        queue.append(item)
                        continue
                    recv, send = ctx.Pipe(duplex=False)
                    ck_spec = ck_spec_for(item) if ck_spec_for is not None else None
                    proc = ctx.Process(
                        target=_worker_main,
                        args=(send, runner, item.job, cfg, ck_spec),
                        daemon=True,
                    )
                    proc.start()
                    send.close()  # keep only the child's end open for EOF
                    started = time.monotonic()
                    running[proc.sentinel] = _Running(
                        item, proc, recv, started,
                        started + timeout if timeout is not None else None,
                    )
                    emit("start", item.job, f"attempt {item.attempt}")

            # Block until a child exits or sends its result, a deadline
            # passes, or a backoff window opens.  Results are received as
            # they arrive: a child sending more than the pipe buffers
            # blocks until it is read, so it would never exit otherwise.
            wait_for = 0.25
            now = time.monotonic()
            if running:
                deadlines = [
                    r.deadline for r in running.values() if r.deadline is not None
                ]
                if deadlines:
                    wait_for = max(0.0, min(wait_for, min(deadlines) - now))
                pipes = {r.recv: r for r in running.values() if not r.recv.closed}
                for ready in connection.wait(
                    [*running, *pipes], timeout=wait_for
                ):
                    if ready in pipes:
                        _receive(pipes[ready])
            elif queue:
                soonest = min(item.ready_at for item in queue)
                if soonest > now:
                    time.sleep(min(soonest - now, wait_for))

            # Reap exited children and enforce deadlines.
            now = time.monotonic()
            for sentinel, r in list(running.items()):
                alive = r.proc.is_alive()
                expired = r.deadline is not None and now >= r.deadline
                if alive and not expired and not draining:
                    continue
                if alive and draining and now < grace_deadline:
                    continue  # still inside the checkpoint grace window
                del running[sentinel]
                if alive:
                    r.proc.terminate()
                    r.proc.join(1.0)
                    if r.proc.is_alive():
                        r.proc.kill()
                        r.proc.join(10.0)
                _receive(r)
                msg = r.msg
                exitcode = r.proc.exitcode
                spent = r.item.spent + (time.monotonic() - r.started)
                if msg is not None and msg[0] == "ok":
                    complete(r.item.job, msg[1], r.item.attempt, spent)
                elif msg is not None and msg[0] == "preempted":
                    if preempted is not None:
                        preempted(r.item.job, msg[1], msg[2],
                                  r.item.attempt, spent)
                elif alive and not draining:  # killed: deadline exceeded
                    handle_failure(
                        r.item, "Timeout",
                        f"worker exceeded the {timeout}s deadline", "",
                        permanent=False, timed_out=True, spent=spent,
                    )
                elif msg is not None:
                    _, error, message, tb, permanent = msg
                    handle_failure(
                        r.item, error, message, tb,
                        permanent=permanent, timed_out=False, spent=spent,
                    )
                elif draining:
                    # Terminated before reaching a checkpoint (or no
                    # checkpoint support): no shard is written, so a
                    # resume simply reruns the job from scratch.
                    emit("interrupted", r.item.job,
                         "stopped before reaching a checkpoint")
                else:  # died without a word: native crash, os._exit, signal
                    handle_failure(
                        r.item, "WorkerCrash",
                        f"worker exited with code {exitcode} "
                        "before reporting a result", "",
                        permanent=False, timed_out=False, spent=spent,
                    )
    finally:
        # Belt and braces: whatever path exits this loop, no child of the
        # sweep survives it.
        for r in running.values():
            if r.proc.is_alive():
                r.proc.kill()
            r.recv.close()
        for r in running.values():
            r.proc.join(10.0)


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


def _load_preempted_snapshot(path: Path) -> str | None:
    """The snapshot path recorded by a valid "preempted" shard, else None.

    Missing/corrupt shards, stale schemas, other statuses, and shards whose
    snapshot file has since vanished all return ``None`` — the job then
    reruns from scratch, which is always correct (just slower)."""
    try:
        raw = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if (
        not isinstance(raw, dict)
        or raw.get("schema_version") not in SUPPORTED_SCHEMA_VERSIONS
    ):
        return None
    if raw.get("status") != "preempted":
        return None
    snapshot = raw.get("snapshot")
    if not isinstance(snapshot, str) or not Path(snapshot).is_file():
        return None
    return snapshot


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
