"""The fork template every isolated attempt is launched from.

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
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
from multiprocessing import forkserver

from repro import failpoints

__all__ = [
    "PRELOAD",
    "fork_attempt",
    "forget_attempt",
    "alive",
    "stop_idle_template",
    "attempt_prologue",
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
]

#: Launches and the idle stop take this lock, and the stop happens only
#: while none of the forked attempts is alive: stopping the template under
#: a live attempt would SIGTERM that attempt through its PDEATHSIG.
_lock = threading.Lock()
_forked: set[multiprocessing.process.BaseProcess] = set()


def fork_attempt(proc: multiprocessing.process.BaseProcess) -> None:
    """Start ``proc`` (a ``forkserver``-context process) from the template,
    starting the template first if none is running."""
    with _lock:
        forkserver.set_forkserver_preload(PRELOAD)
        proc.start()
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


def attempt_prologue(
    parent_pid: int, failpoint_spec: tuple[str, int] | None
) -> None:
    """What a forked attempt runs before anything else.

    PDEATHSIG is armed while this child still holds the template open, so
    the template cannot exit before it is armed.  A child whose launching
    process ``parent_pid`` is already gone exits 98: nobody is listening.
    (``getppid()`` would name the template.)  Last, the failpoint
    registry is set to ``failpoint_spec``, what the launching process read
    from :func:`repro.failpoints.active_spec` at launch: the template's
    environment is that of its own start, so a spec set or cleared since
    then reaches the attempt only this way.
    """
    _set_pdeathsig()
    _drop_template_hold()
    if not alive(parent_pid):
        os._exit(98)
    spec, seed = failpoint_spec or ("", 0)
    failpoints.configure(spec, seed)
