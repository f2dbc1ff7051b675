"""Host-time spans around the public calls into each ``repro`` layer.

The traced run installs :func:`install_sim_layers` (or
:func:`install_service_client`) in a fresh interpreter.  Each wrapper
records one span per call — at task or phase granularity, never per
reference — with ``time.perf_counter_ns``, plus the counts the per-layer
table reports.  Spans stay in memory until the run ends; nothing here
touches ``repro``'s own code, the wrappers only replace attributes and
every installer returns a function that puts the originals back.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from pathlib import Path
from typing import Any, Callable


class SpanRecorder:
    """Spans as ``[name, start_ns, end_ns, parent_index]`` plus counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


def _wrap(rec: SpanRecorder, owner: Any, attr: str, layer: str,
          before: Callable | None = None,
          after: Callable | None = None) -> Callable[[], None]:
    """Replace ``owner.attr`` with a spanned call; returns the undo."""
    raw = inspect.getattr_static(owner, attr)
    kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
    fn = raw.__func__ if kind is not None else raw

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        token = before(args) if before is not None else None
        idx = rec.begin(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(idx)
        if after is not None:
            after(args, result, token)
        return result

    setattr(owner, attr, kind(spanned) if kind is not None else spanned)
    return lambda: setattr(owner, attr, raw)


def _defining(base: type, attr: str) -> list[type]:
    """``base`` and every loaded subclass that defines ``attr`` itself."""
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        if attr in cls.__dict__:
            out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


class _SpannedContext:
    """Times a context manager from ``__enter__`` to ``__exit__``."""

    def __init__(self, rec: SpanRecorder, layer: str, inner: Any) -> None:
        self.rec, self.layer, self.inner = rec, layer, inner

    def __enter__(self):
        self.idx = self.rec.begin(self.layer)
        return self.inner.__enter__()

    def __exit__(self, *exc):
        try:
            return self.inner.__exit__(*exc)
        finally:
            self.rec.end(self.idx)
            self.rec.count("ioutils.writes")


def install_sim_layers(rec: SpanRecorder) -> Callable[[], None]:
    """Span every simulation-side layer the per-layer table names."""
    # Load every module defining a NucaPolicy or SimKernel subclass before
    # _defining looks for them; kernels are otherwise imported lazily.
    import repro.core.tdnuca  # noqa: F401
    import repro.nuca.dnuca  # noqa: F401
    import repro.nuca.rnuca  # noqa: F401
    import repro.nuca.snuca  # noqa: F401
    import repro.sim.kernels.vector  # noqa: F401
    import repro.sim.kernels.verify  # noqa: F401

    import repro.api
    import repro.experiments.harness
    import repro.experiments.serialize
    import repro.ioutils
    import repro.sim.machine
    from repro.core.isa import TdNucaISA
    from repro.mem.pagetable import PageTable
    from repro.nuca.base import NucaPolicy
    from repro.runtime.executor import Executor
    from repro.runtime.extensions import TdNucaRuntime
    from repro.runtime.tdg import TaskGraph
    from repro.scenario.model import Scenario
    from repro.sim.kernels import SimKernel
    from repro.sim.machine import Machine
    from repro.stats.counters import BlockCensus
    from repro.workloads.base import Workload
    from repro.workloads.registry import BENCHMARKS

    undo: list[Callable[[], None]] = []

    def counted(key: str):
        return lambda args, result, token: rec.count(key)

    def count_tasks(args, program, token):
        rec.count("workloads.tasks", sum(len(p) for p in program.phases))

    def count_executed(args, stats, token):
        rec.count("runtime.executor.tasks", stats.tasks_executed)

    def count_edges(args, result, before):
        rec.count("runtime.tdg.edges", args[0].edges - before)

    def count_flushes(args, actions, token):
        rec.count("nuca.flush_actions", len(actions))

    kernels: dict[int, Any] = {}

    def count_refs(args, result, token):
        # run_blocks(self, machine, core, pblocks, writes, ...)
        rec.count("sim.kernels.refs", len(args[3]))
        kernels[id(args[0])] = args[0].stats

    undo.append(_wrap(rec, Scenario, "from_config", "scenario"))
    undo.append(_wrap(rec, Scenario, "to_config", "scenario"))
    for cls in {Workload, *BENCHMARKS.values()}:
        if "build" in cls.__dict__:
            undo.append(_wrap(rec, cls, "build", "workloads", after=count_tasks))
    undo.append(_wrap(rec, repro.api, "build_machine", "sim.build"))
    undo.append(_wrap(rec, Machine, "collect_stats", "sim.collect"))
    undo.append(_wrap(rec, Executor, "run", "runtime.executor",
                      after=count_executed))
    undo.append(_wrap(rec, TaskGraph, "add_task", "runtime.tdg",
                      before=lambda args: args[0].edges, after=count_edges))
    undo.append(_wrap(rec, TaskGraph, "mark_finished", "runtime.tdg"))
    for hook in ("on_task_created", "on_task_start", "on_task_end"):
        undo.append(_wrap(rec, TdNucaRuntime, hook, "runtime.extensions",
                          after=counted("runtime.extensions.calls")))
    for op in ("tdnuca_register", "tdnuca_invalidate", "tdnuca_flush"):
        undo.append(_wrap(rec, TdNucaISA, op, "core.isa",
                          after=counted("core.isa.calls")))
    undo.append(_wrap(rec, repro.sim.machine, "build_trace_cached",
                      "runtime.trace"))
    undo.append(_wrap(rec, PageTable, "translate_blocks", "mem"))
    for cls in _defining(NucaPolicy, "classify_pages"):
        undo.append(_wrap(rec, cls, "classify_pages", "nuca",
                          after=count_flushes))
    undo.append(_wrap(rec, BlockCensus, "record", "stats.census"))
    undo.append(_wrap(rec, Machine, "run_task_trace", "sim.task"))
    for cls in _defining(SimKernel, "run_blocks"):
        undo.append(_wrap(rec, cls, "run_blocks", "sim.kernels",
                          after=count_refs))
    undo.append(_wrap(rec, repro.experiments.serialize, "result_to_dict",
                      "experiments.serialize"))
    undo.append(_wrap(rec, repro.experiments.serialize, "sweep_to_json",
                      "experiments.serialize"))
    for module in (repro.ioutils, repro.experiments.harness):
        original = module.atomic_write

        def spanned_write(*args, _original=original, **kwargs):
            return _SpannedContext(rec, "ioutils", _original(*args, **kwargs))

        module.atomic_write = spanned_write
        undo.append(functools.partial(setattr, module, "atomic_write", original))

    cache = repro.sim.machine.shared_trace_cache
    hits0, misses0 = cache.hits, cache.misses

    def finish() -> None:
        for fn in reversed(undo):
            fn()
        rec.count("runtime.trace.hits", cache.hits - hits0)
        rec.count("runtime.trace.misses", cache.misses - misses0)
        rec.count("sim.kernels.tasks_vector",
                  sum(s.tasks_vector for s in kernels.values()))
        rec.count("sim.kernels.tasks_total",
                  sum(s.tasks_total for s in kernels.values()))

    return finish


def install_service_client(rec: SpanRecorder) -> Callable[[], None]:
    """Span each :class:`ServiceClient` call; an events stream counts up to
    its first line, the rest of it is waiting for the job."""
    from repro.service.client import ServiceClient

    undo = _wrap(rec, ServiceClient, "request", "service.http")
    original = ServiceClient.iter_events

    def iter_events(self, job_id):
        stream = original(self, job_id)
        idx = rec.begin("service.http")
        try:
            first = next(stream)
        finally:
            rec.end(idx)
        yield first
        yield from stream

    ServiceClient.iter_events = iter_events

    def finish() -> None:
        ServiceClient.iter_events = original
        undo()

    return finish


def write_chrome_trace(path: Path, workload: str, pid: int,
                       tracks: dict[str, list[list]]) -> None:
    """Merge ``workload``'s spans into a Chrome trace-event file.

    One process track per workload (replacing that workload's previous
    spans), one thread per entry of ``tracks``; timestamps are
    microseconds from the workload's first span.  The file opens in
    ui.perfetto.dev next to the simulated-cycle traces ``repro trace``
    writes.
    """
    try:
        events = json.loads(path.read_text())["traceEvents"]
    except (OSError, ValueError, KeyError):
        events = []
    events = [e for e in events if e.get("pid") != pid]
    events.append({"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
                   "args": {"name": workload}})
    starts = [s[1] for spans in tracks.values() for s in spans]
    t0 = min(starts) if starts else 0
    for tid, (track, spans) in enumerate(tracks.items()):
        events.append({"ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
                       "args": {"name": track}})
        for name, start, end, *_ in spans:
            events.append({"ph": "X", "pid": pid, "tid": tid, "name": name,
                           "ts": (start - t0) / 1000, "dur": (end - start) / 1000})
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"traceEvents": events}))
    tmp.replace(path)
