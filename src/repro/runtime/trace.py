"""Per-task memory trace generation.

A task's trace is the block-granularity sequence of virtual-block accesses
its kernel performs: one sequential sweep per :class:`AccessChunk`, each
pass touching every block of the chunk's region once.  Traces are built as
NumPy arrays (block numbers + write flags) so translation and census
bookkeeping stay vectorized; only the cache state machine consumes them
element-wise.
"""

from __future__ import annotations

import numpy as np

from repro.mem.address import AddressMap
from repro.runtime.task import Task

__all__ = ["TaskTrace", "build_trace", "build_trace_cached", "trace_signature"]


class TaskTrace:
    """Immutable (vblocks, writes) pair for one task execution."""

    __slots__ = ("vblocks", "writes")

    def __init__(self, vblocks: np.ndarray, writes: np.ndarray) -> None:
        if vblocks.shape != writes.shape:
            raise ValueError("vblocks and writes must have the same shape")
        self.vblocks = vblocks
        self.writes = writes

    def __len__(self) -> int:
        return len(self.vblocks)


def build_trace(task: Task, amap: AddressMap) -> TaskTrace:
    """Expand ``task``'s access chunks into a block trace.

    Every block *overlapping* a chunk's region is touched (partial first and
    last blocks included — the program really does access those bytes; only
    TD-NUCA *management* excludes them, per Section III-D).
    """
    parts: list[np.ndarray] = []
    flags: list[np.ndarray] = []
    for chunk in task.effective_accesses():
        rng = chunk.region.blocks(amap)
        if not len(rng):
            continue
        sweep = np.arange(rng.start, rng.stop, dtype=np.int64)
        if chunk.rmw:
            # read b0, write b0, read b1, write b1, ... per pass
            sweep = np.repeat(sweep, 2)
            pass_flags = np.tile(np.array([False, True]), len(rng))
        else:
            pass_flags = np.full(len(sweep), chunk.write, dtype=bool)
        if chunk.passes > 1:
            sweep = np.tile(sweep, chunk.passes)
            pass_flags = np.tile(pass_flags, chunk.passes)
        parts.append(sweep)
        flags.append(pass_flags)
    if not parts:
        empty = np.empty(0, dtype=np.int64)
        return TaskTrace(empty, np.empty(0, dtype=bool))
    return TaskTrace(np.concatenate(parts), np.concatenate(flags))


def trace_signature(task: Task) -> tuple:
    """Hashable key capturing everything :func:`build_trace` reads.

    Two tasks with equal signatures produce identical traces for a given
    address map, so the expansion can be shared: task-dataflow programs
    re-execute the same kernel shapes over and over (every Jacobi sweep,
    every k-means assign phase), and re-materializing the same NumPy
    arrays per task instance is pure interpreter overhead.
    """
    return tuple(
        (c.region.start, c.region.size, c.write, c.passes, c.rmw)
        for c in task.effective_accesses()
    )


#: signature-cache ceiling; programs with more distinct kernel shapes than
#: this evict their least-recently-used expansions (correctness is
#: unaffected, only sharing).
_TRACE_CACHE_MAX = 4096


class TraceCache:
    """Bounded LRU of expanded traces, shared across machines and kernels.

    Keyed by (address-map geometry, task signature), so one process-wide
    instance serves every machine: a sweep that runs the same workload
    under several policies — or the verify kernel running two backends
    over one machine — expands each distinct kernel shape once.  Traces
    are immutable, so sharing is safe; the bound keeps long sweeps from
    growing the cache without limit, evicting oldest-unused-first.
    """

    __slots__ = ("max_entries", "hits", "misses", "_entries")

    def __init__(self, max_entries: int = _TRACE_CACHE_MAX) -> None:
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._entries: dict[tuple, TaskTrace] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def get_or_build(self, task: Task, amap: AddressMap) -> TaskTrace:
        entries = self._entries
        key = (
            (amap.block_bytes, amap.page_bytes, amap.physical_address_bits),
            trace_signature(task),
        )
        trace = entries.pop(key, None)
        if trace is None:
            self.misses += 1
            if len(entries) >= self.max_entries:
                # dicts iterate in insertion order; with the pop/reinsert
                # on every hit below, the first key is the LRU entry.
                del entries[next(iter(entries))]
            trace = build_trace(task, amap)
        else:
            self.hits += 1
        entries[key] = trace  # (re)insert at the most-recent position
        return trace


#: the process-wide instance every machine uses by default.
shared_trace_cache = TraceCache()


def build_trace_cached(
    task: Task, amap: AddressMap, cache: TraceCache | None = None
) -> TaskTrace:
    """Memoized :func:`build_trace` through ``cache`` (default: the shared
    geometry-keyed LRU).  Returned traces are shared and must be treated
    as immutable, which every consumer already does — translation and
    census read them, nothing writes.
    """
    if cache is None:
        cache = shared_trace_cache
    return cache.get_or_build(task, amap)
