"""The fork template and the one supervised attempt path of both executors.

Both executors — the sweep harness (:mod:`repro.experiments.harness`) and
the service worker pool (:mod:`repro.service.workers`) — run each attempt
in a fresh child process.  Instead of starting an interpreter and
importing ``repro`` and numpy per attempt, they fork it from a
**template**: the stdlib ``forkserver``, preloaded with :data:`PRELOAD`.
The template is a single-threaded process that has only imported code and
never runs a job, so a child inherits no heap, lock or module state of
any earlier attempt, yet starts with the simulator already loaded.  This
needs a POSIX host.

Lifecycle.  There is one template per process, shared by every user in
it.  It starts lazily at the first :func:`fork_attempt` and inherits the
environment of that moment.  :func:`stop_idle_template` stops and reaps
it once no attempt forked from it is alive — a sweep calls it when it
returns, a service pool when it drains — and the next launch starts a
fresh one.

Orphan reaping.  A child's parent is the template, and the template
exits as soon as every holder of its liveness pipe has closed it.  Each
child runs :func:`attempt_prologue` first: it arms ``PR_SET_PDEATHSIG``
against the template, then closes its inherited copy of that pipe.  The
launching process then holds the last copy, so a ``kill -9`` of it stops
the template, and the template's exit sends every child SIGTERM — a
child with a checkpointer snapshots at its next task boundary and exits.

One attempt path.  Either executor forks an attempt with :func:`launch`
and waits for it with :meth:`AttemptHandle.supervise`.  The child entry
runs the prologue, traps SIGTERM as "checkpoint and stop", reports
``ready``, fires the executor's start failpoints and then runs the
executor's *body* under an :class:`Attempt`, whose checkpointers stamp
the heartbeat and fire the ``worker.*`` failpoints at every task
boundary.  It ends with one verdict, classified by
:data:`PERMANENT_ERRORS`: ``("ok", value)``, ``("preempted", snapshot,
tasks)`` or ``("error", name, message, traceback, permanent)``.  An
in-process attempt runs the same body through :func:`verdict_of`, so its
verdict has the same shape.

Deadline rule.  ``budget`` seconds after the launch the supervisor asks
the child to checkpoint and stop; ``grace`` seconds later it SIGKILLs
it.  Each executor passes its own constant grace.

Resume rule.  :func:`resume_or_fresh` continues a run from its snapshot
file when a valid one is on disk; a corrupt one, or one of another
identity, is quarantined to ``*.corrupt`` and the run starts fresh.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import traceback
from multiprocessing import forkserver
from typing import Any, Callable

from repro import failpoints
from repro.sim.kernels import KERNEL_ENV
from repro.snapshot import (
    EXIT_PREEMPTED,
    Checkpointer,
    PreemptedError,
    SnapshotMismatchError,
    load_or_quarantine,
)

__all__ = [
    "PRELOAD",
    "PERMANENT_ERRORS",
    "retry_delay",
    "fork_attempt",
    "forget_attempt",
    "alive",
    "stop_idle_template",
    "attempt_prologue",
    "WorkerDied",
    "AttemptHandle",
    "Attempt",
    "launch",
    "verdict_of",
    "resume_or_fresh",
]

#: what the template imports once, so that an attempt of either executor
#: starts with the simulator loaded.
PRELOAD = [
    "repro.experiments.harness",
    "repro.service.workers",
    "repro.api",
    "repro.service.cache",
    "repro.service.queue",
    "repro.obs",
    "repro.sim.kernels.vector",
    "numpy.random",
    "multiprocessing.sharedctypes",  # unpickles the heartbeat array
]

#: the directory ``repro`` was imported from, which the template is
#: pointed at (see :func:`fork_attempt`).
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: the pid of the process that imported this module: in an attempt
#: forked from a preloaded template, the template's.
IMPORTED_BY = os.getpid()

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


#: Launches and the idle stop take this lock, and the stop happens only
#: while none of the forked attempts is alive: stopping the template under
#: a live attempt would SIGTERM that attempt through its PDEATHSIG.
_lock = threading.Lock()
_forked: set[multiprocessing.process.BaseProcess] = set()


def fork_attempt(proc: multiprocessing.process.BaseProcess) -> None:
    """Start ``proc`` (a ``forkserver``-context process) from the template,
    starting the template first if none is running.

    The template imports :data:`PRELOAD` under the environment of its
    start, and nothing else tells it where ``repro`` is: the stdlib
    template is handed the launcher's ``sys.path`` but does not apply it
    (CPython 3.11), and it ignores a preload that fails to import.  So
    ``PYTHONPATH`` names the package root while the template may start.
    """
    with _lock:
        forkserver.set_forkserver_preload(PRELOAD)
        saved = os.environ.get("PYTHONPATH")
        paths = saved.split(os.pathsep) if saved else []
        if _PACKAGE_ROOT not in paths:
            os.environ["PYTHONPATH"] = os.pathsep.join([_PACKAGE_ROOT, *paths])
        try:
            proc.start()
        finally:
            if saved is None:
                os.environ.pop("PYTHONPATH", None)
            else:
                os.environ["PYTHONPATH"] = saved
        _forked.add(proc)


def forget_attempt(proc: multiprocessing.process.BaseProcess) -> None:
    """Drop a joined attempt from the set that keeps the template alive."""
    with _lock:
        _forked.discard(proc)


def alive(pid: int) -> bool:
    """Whether ``pid`` exists; reads no exit status, so any thread may ask."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # exists, but is not ours to signal
        pass
    return True


def stop_idle_template() -> None:
    """Stop and reap the template unless an attempt forked from it lives."""
    with _lock:
        if not any(alive(p.pid) for p in _forked):
            forkserver._forkserver._stop()


# ---------------------------------------------------------------------------
# supervisor side

#: heartbeat array slots: lease decisions read the monotonic stamp; the
#: wall stamp exists only so humans can line logs up against it.
_HB_MONO = 0
_HB_WALL = 1


def _stamp(hb: Any) -> None:
    """Stamp the heartbeat (child side, every task boundary)."""
    hb[_HB_MONO] = time.monotonic()
    hb[_HB_WALL] = time.time()


class WorkerDied(Exception):
    """A worker process died (or was killed) without settling its job.

    ``reason`` is one of ``"crashed"`` (exited without a terminal
    message), ``"lease-expired"`` (heartbeat went silent), or
    ``"hard-timeout"`` (still running a grace period past its deadline).
    ``exitcode`` is the raw ``Process.exitcode`` (negative = killed by
    that signal); ``term_signal`` extracts the signal number.
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


def _signal(proc: multiprocessing.process.BaseProcess, sig: int) -> None:
    try:
        if proc.pid is not None:
            os.kill(proc.pid, sig)
    except (ProcessLookupError, OSError):
        pass


class AttemptHandle:
    """The supervisor's view of one forked attempt.

    Its :meth:`request_preempt` is the one :class:`Checkpointer` method an
    executor's drain calls, so a handle stands in for the checkpointer of
    an in-process attempt: the request is forwarded to the child as
    SIGTERM once the child reports ready, so a drain can't kill a child
    mid-startup and lose the checkpoint the drain exists to write.
    """

    def __init__(
        self, proc: multiprocessing.process.BaseProcess, hb: Any, conn: Any = None
    ) -> None:
        self.proc = proc
        self.hb = hb
        self.conn = conn
        self.ready = False
        self.preempt_requested = False
        self.signalled = False
        #: set once the attempt's deadline passed while the child ran.
        self.timed_out = False
        self.started = time.monotonic()

    def request_preempt(self) -> None:
        """Signal-handler-safe: only sets a flag; :meth:`supervise`
        forwards SIGTERM (repeat calls are idempotent)."""
        self.preempt_requested = True

    def kill(self) -> None:
        """SIGKILL the child; its supervisor still reads the exit status."""
        _signal(self.proc, signal.SIGKILL)

    def alive(self) -> bool:
        """Whether the child's pid still exists; safe from any thread.

        Only the supervisor thread may poll or join ``proc``: a forked
        child's exit code is read once from the template's pipe, and a
        second reader would get EOF and record exit code 255 instead.
        """
        pid = self.proc.pid
        return pid is not None and alive(pid)

    def heartbeat_age(self) -> float:
        """Seconds since the child's last stamp, on the shared monotonic
        clock — immune to wall-clock (NTP) steps in either direction."""
        return max(0.0, time.monotonic() - self.hb[_HB_MONO])

    def heartbeat_wall(self) -> float:
        """The wall-clock time of the last stamp — diagnostics only,
        never used for lease-expiry decisions."""
        return self.hb[_HB_WALL]

    def supervise(
        self,
        on_message: Callable[[tuple], None] | None,
        *,
        budget: float | None = None,
        grace: float,
        lease_timeout: float | None = None,
    ) -> tuple:
        """Block until the child settles; reap it and return its verdict.

        Messages stream to ``on_message`` as they arrive (a child blocked
        on a full pipe would never exit); ``budget``/``grace`` are the
        deadline rule, ``lease_timeout`` the heartbeat lease.  Raises
        :class:`WorkerDied` for a child that ended without a verdict.
        """
        proc, recv = self.proc, self.conn
        deadline = None if budget is None else self.started + budget
        verdict: tuple | None = None
        try:
            while verdict is None:
                if deadline is not None and not self.timed_out:
                    if time.monotonic() >= deadline:
                        self.timed_out = self.preempt_requested = True
                if self.preempt_requested and self.ready and not self.signalled:
                    self.signalled = True
                    _signal(proc, signal.SIGTERM)
                if recv.poll(0.05):
                    try:
                        verdict = self._take(recv.recv(), on_message)
                    except (EOFError, OSError):
                        break
                    continue
                age = self.heartbeat_age()
                if deadline is not None and time.monotonic() >= deadline + grace:
                    self.kill()
                    raise WorkerDied(
                        "hard-timeout", exitcode=proc.exitcode, heartbeat_age=age
                    )
                if lease_timeout is not None and age > lease_timeout:
                    self.kill()
                    raise WorkerDied(
                        "lease-expired", exitcode=proc.exitcode, heartbeat_age=age
                    )
                if not proc.is_alive():
                    while verdict is None and recv.poll(0):  # what it flushed dying
                        try:
                            verdict = self._take(recv.recv(), on_message)
                        except (EOFError, OSError):
                            break
                    break
            if verdict is None:
                proc.join(timeout=5.0)
                raise WorkerDied(
                    "crashed",
                    exitcode=proc.exitcode,
                    heartbeat_age=self.heartbeat_age(),
                )
        finally:
            if proc.is_alive():
                self.kill()
            proc.join(timeout=5.0)
            forget_attempt(proc)
            recv.close()
        return verdict

    def _take(self, msg: tuple, on_message: Callable | None) -> tuple | None:
        """Apply one child message; return it if it is the verdict."""
        kind = msg[0]
        if kind in ("ok", "preempted", "error"):
            return msg
        if kind == "ready":
            self.ready = True
        elif on_message is not None:
            on_message(msg)
        return None


def launch(
    body: Callable[[Attempt], Any],
    payload: dict[str, Any],
    *,
    name: str | None = None,
    before: Callable[[AttemptHandle], None] | None = None,
) -> AttemptHandle:
    """Fork an attempt of ``body`` (module-level) from the template.

    ``payload`` reaches it as :attr:`Attempt.payload`; the child entry
    also reads ``label``, ``attempt``, ``start_sites`` and ``checkpoints``
    from it.  ``before(handle)`` runs before the fork, so a preempt
    requested while the template starts is not lost.
    """
    ctx = multiprocessing.get_context("forkserver")
    recv, send = ctx.Pipe(duplex=False)
    # [monotonic, wall]: CLOCK_MONOTONIC is per-boot, so parent and
    # child (same host by construction) read the same timeline.
    hb = ctx.Array("d", [time.monotonic(), time.time()], lock=False)
    payload = {
        "parent_pid": os.getpid(),
        "failpoints": failpoints.active_spec(),
        "kernel": os.environ.get(KERNEL_ENV),
        **payload,
    }
    proc = ctx.Process(
        target=_attempt_main, args=(send, hb, body, payload),
        name=name, daemon=True,
    )
    handle = AttemptHandle(proc, hb, recv)
    if before is not None:
        before(handle)
    fork_attempt(proc)
    send.close()  # child holds the only write end: EOF tracks its death
    handle.started = time.monotonic()
    return handle


# ---------------------------------------------------------------------------
# child side


def _set_pdeathsig() -> None:
    """Arm PR_SET_PDEATHSIG=SIGTERM (Linux) against the template, which
    exits with the launching process.  Best-effort elsewhere."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG = 1
    except (OSError, AttributeError, TypeError):
        pass


def _drop_template_hold() -> None:
    """Close this child's copy of the template's liveness pipe."""
    fs = forkserver._forkserver
    os.close(fs._forkserver_alive_fd)
    fs._forkserver_alive_fd = None


def attempt_prologue(payload: dict[str, Any]) -> None:
    """What a forked attempt runs before anything else.

    PDEATHSIG is armed while this child still holds the template open, so
    the template cannot exit before it is armed.  A child whose launching
    process (``parent_pid``) is already gone exits 98: nobody is
    listening.  (``getppid()`` would name the template.)  Last, the
    failpoint registry and ``REPRO_KERNEL`` are set to what the launching
    process had at launch (``failpoints``, from
    :func:`repro.failpoints.active_spec`, and ``kernel``, unset when
    ``None``): the template's environment is that of its own start, so a
    spec or kernel set or cleared since then reaches the attempt only
    this way.
    """
    _set_pdeathsig()
    _drop_template_hold()
    if not alive(payload["parent_pid"]):
        os._exit(98)
    spec, seed = payload["failpoints"] or ("", 0)
    failpoints.configure(spec, seed)
    if payload["kernel"] is None:
        os.environ.pop(KERNEL_ENV, None)
    else:
        os.environ[KERNEL_ENV] = payload["kernel"]


class _BoundaryCheckpointer(Checkpointer):
    """Checkpointer that also stamps the heartbeat and evaluates the
    ``worker.*`` failpoints at every live dispatch boundary."""

    def __init__(self, *args: Any, hb: Any, fctx: dict[str, Any],
                 **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._hb = hb
        self._fctx = fctx
        # Activation is fixed for the child's lifetime; cache the check so
        # the uninjected hot path pays one attribute test per dispatch.
        self._fp_active = failpoints.get().active

    def after_dispatch(self, executor: Any, name: str, duration: int) -> None:
        _stamp(self._hb)
        if self._fp_active:
            ctx = dict(self._fctx, task=executor.machine.tasks_completed)
            failpoints.fire("worker.crash", **ctx)
            failpoints.fire("worker.hang", **ctx)
            failpoints.fire("worker.oom", **ctx)
        super().after_dispatch(executor, name, duration)


class Attempt:
    """What an attempt's body sees: its payload, a message channel to the
    supervisor, and checkpointers that honour a preempt request.  Built
    without pipe or heartbeat for an in-process attempt: then messages go
    nowhere and checkpointers are plain.
    """

    def __init__(
        self, payload: dict[str, Any], conn: Any = None, hb: Any = None
    ) -> None:
        self.payload = payload
        self.fctx = {"job": payload["label"], "attempt": payload["attempt"]}
        self._conn = conn
        self._hb = hb
        self._ck: Checkpointer | None = None
        self._preempt = False

    def send(self, msg: tuple) -> None:
        """Stream ``msg`` to the supervisor, ignoring a vanished parent —
        the body's cache and snapshot writes are atomic either way, and
        those are what a resume reads."""
        if self._conn is None:
            return
        try:
            self._conn.send(msg)
        except (BrokenPipeError, OSError):
            pass

    def stamp(self) -> None:
        """Stamp the heartbeat outside a checkpointer (e.g. per cell)."""
        if self._hb is not None:
            _stamp(self._hb)

    def request_preempt(self) -> None:
        """Signal-handler-safe: preempt the current checkpointer, and any
        later one, at its next task boundary."""
        self._preempt = True
        if self._ck is not None:
            self._ck.request_preempt()

    def checkpointer(self, path: Any, **kwargs: Any) -> Checkpointer:
        """A fresh checkpointer writing ``path``; the preempt target from
        now on."""
        if self._hb is None:
            ck = Checkpointer(path, **kwargs)
        else:
            ck = _BoundaryCheckpointer(path, hb=self._hb, fctx=self.fctx, **kwargs)
        self._ck = ck
        if self._preempt:  # the request landed before this run started
            ck.request_preempt()
        return ck


def _error_verdict(exc: BaseException) -> tuple:
    return (
        "error", type(exc).__name__, str(exc), traceback.format_exc(),
        isinstance(exc, PERMANENT_ERRORS),
    )


def verdict_of(body: Callable[[Attempt], Any], attempt: Attempt) -> tuple:
    """Run ``body(attempt)`` and classify how it ended, as a verdict."""
    try:
        return ("ok", body(attempt))
    except PreemptedError as exc:
        return ("preempted", str(exc.path), exc.tasks_completed)
    except Exception as exc:  # noqa: BLE001 - classified for the retry code
        return _error_verdict(exc)


_EXIT_CODES = {"ok": 0, "preempted": EXIT_PREEMPTED, "error": 1}


def _attempt_main(
    conn: Any, hb: Any, body: Callable[[Attempt], Any], payload: dict[str, Any]
) -> None:
    """The child entry of every forked attempt.

    The prologue comes first, so even an early wreck is contained, then
    the signal handlers, then ``ready``.  An attempt that keeps no
    snapshot (``checkpoints`` false) has nothing to save on SIGTERM and
    keeps its default action.  SIGINT is ignored: a terminal Ctrl-C hits
    the whole process group, and the parent coordinates it.
    """
    attempt_prologue(payload)
    attempt = Attempt(payload, conn, hb)
    if payload["checkpoints"]:
        signal.signal(signal.SIGTERM, lambda signum, frame: attempt.request_preempt())
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _stamp(hb)
    attempt.send(("ready",))
    try:
        for site in payload["start_sites"]:
            failpoints.fire(site, **attempt.fctx)
        verdict = verdict_of(body, attempt)
    except BaseException as exc:  # noqa: BLE001 - report SystemExit too
        verdict = _error_verdict(exc)
    try:
        conn.send(verdict)
    except (BrokenPipeError, OSError):
        pass  # nobody is listening
    except Exception as exc:  # e.g. the result failed to pickle
        attempt.send((
            "error", type(exc).__name__,
            f"result could not be sent to the parent: {exc}",
            traceback.format_exc(), True,
        ))
    conn.close()
    os._exit(_EXIT_CODES[verdict[0]])


def resume_or_fresh(
    run: Callable[[Any], Any],
    snapshot: Any,
    on_discard: Callable[[], None] | None = None,
) -> Any:
    """The resume rule: ``run(resume_from)`` from ``snapshot`` when a
    valid one is on disk (``None`` runs fresh).  One of another identity
    is quarantined, ``on_discard()`` told, and ``run`` called again fresh
    — so ``run`` builds its checkpointer per call.
    """
    resume_from = None
    if snapshot is not None and load_or_quarantine(snapshot) is not None:
        resume_from = snapshot
    try:
        return run(resume_from)
    except SnapshotMismatchError:
        if resume_from is None:
            raise
        try:
            os.replace(snapshot, f"{snapshot}.corrupt")
        except OSError:
            pass
        if on_discard is not None:
            on_discard()
        return run(None)
