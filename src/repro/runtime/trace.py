"""Per-task memory trace generation.

A task's trace is the block-granularity sequence of virtual-block accesses
its kernel performs: one sequential sweep per :class:`AccessChunk`, each
pass touching every block of the chunk's region once.  A :class:`TaskTrace`
keeps that sequence as its chunks' block runs and never expands it per
reference: the census's unique blocks, the pages to translate and the
per-reference physical sequence the kernel walks are all derived from the
runs (see :meth:`Machine.run_task_trace`), so the host work per task
scales with its chunks, not with its references.

Runs are stored flat, four ints per chunk in one tuple, because the
process-wide cache keeps thousands of them: a tuple per chunk would cost
more than the references it describes.
"""

from __future__ import annotations

from repro.mem.address import AddressMap
from repro.runtime.task import Task

__all__ = [
    "READ",
    "RMW",
    "WRITE",
    "TaskTrace",
    "bracket",
    "build_trace",
    "build_trace_cached",
    "expand_runs",
    "run_spans",
    "trace_signature",
    "unique_segments",
]

#: run kinds: a read sweep, a write sweep, or a read-modify-write sweep
#: (each block read and then immediately written).
READ, WRITE, RMW = 0, 1, 2

#: one read-modify-write step's write flags.
_READ_THEN_WRITE = [False, True]


def run_spans(runs: tuple) -> list[tuple[int, int]]:
    """The ``(first, stop)`` block span of every run in flat ``runs``."""
    return list(zip(runs[0::4], runs[1::4]))


def _union(spans) -> list[list[int]]:
    """Sorted, disjoint ``[first, stop]`` spans covering ``spans``
    (overlapping and abutting spans merge)."""
    out: list[list[int]] = []
    for first, stop in sorted(spans):
        if out and first <= out[-1][1]:
            if stop > out[-1][1]:
                out[-1][1] = stop
        else:
            out.append([first, stop])
    return out


def unique_segments(runs: tuple) -> tuple[tuple[int, int, bool], ...]:
    """The blocks flat ``runs`` touch, as ascending disjoint ``(first,
    stop, written)`` segments; ``written`` is whether any written run (a
    write or read-modify-write sweep) covers the segment."""
    spans = run_spans(runs)
    every = _union(spans)
    written = _union(span for span, kind in zip(spans, runs[3::4]) if kind != READ)
    segments: list[tuple[int, int, bool]] = []
    w = 0
    for lo, hi in every:
        # Written spans are merged too, so each lies inside one span of
        # ``every`` and splits it into read and written pieces.
        while w < len(written) and written[w][0] < hi:
            wlo, whi = written[w]
            if wlo > lo:
                segments.append((lo, wlo, False))
            segments.append((wlo, whi, True))
            lo = whi
            w += 1
        if lo < hi:
            segments.append((lo, hi, False))
    return tuple(segments)


def expand_runs(runs: tuple, sweeps) -> tuple[list[int], list[bool]]:
    """Per-reference block and write sequences of flat ``runs``.

    ``sweeps[i]`` lists the blocks of one pass over run ``i`` (virtual or
    already translated).  Every step is a list copy or repeat, so the cost
    per run is a few C-level operations whatever its length.
    """
    blocks: list[int] = []
    writes: list[bool] = []
    for passes, kind, sweep in zip(runs[2::4], runs[3::4], sweeps):
        n = len(sweep)
        if kind == RMW:
            # read b0, write b0, read b1, write b1, ... per pass
            pairs = [0] * (2 * n)
            pairs[::2] = sweep
            pairs[1::2] = sweep
            sweep = pairs
            flags = _READ_THEN_WRITE * n
        else:
            flags = [kind == WRITE] * n
        if passes > 1:
            sweep = sweep * passes
            flags = flags * passes
        blocks += sweep
        writes += flags
    return blocks, writes


class TaskTrace:
    """Immutable block-run form of one task's trace.

    ``runs`` is a flat tuple of ``first, stop, passes, kind`` per non-empty
    chunk, in program order: the virtual blocks ``[first, stop)`` swept
    ``passes`` times as :data:`READ`, :data:`WRITE` or :data:`RMW`.
    ``segments`` is :func:`unique_segments` of the runs, kept because the
    census and the translation need it on every execution.
    """

    __slots__ = ("runs", "segments", "refs")

    def __init__(self, runs: tuple) -> None:
        runs = tuple(runs)
        if len(runs) % 4:
            raise ValueError("trace runs come four ints per chunk")
        refs = 0
        for first, stop, passes, kind in zip(*[iter(runs)] * 4):
            if stop <= first or passes <= 0 or kind not in (READ, WRITE, RMW):
                raise ValueError(f"malformed trace run {(first, stop, passes, kind)}")
            refs += (stop - first) * passes * (2 if kind == RMW else 1)
        self.runs = runs
        self.refs = refs
        self.segments = unique_segments(runs)

    def __len__(self) -> int:
        return self.refs

    def expand(self) -> tuple[list[int], list[bool]]:
        """The virtual block and write flag of every reference, in order
        (for inspection; the machine expands translated runs instead)."""
        return expand_runs(
            self.runs, [list(range(f, s)) for f, s in run_spans(self.runs)]
        )

    @property
    def vblocks(self) -> list[int]:
        return self.expand()[0]

    @property
    def writes(self) -> list[bool]:
        return self.expand()[1]


def build_trace(task: Task, amap: AddressMap) -> TaskTrace:
    """Collect ``task``'s access chunks as block runs.

    Every block *overlapping* a chunk's region is touched (partial first and
    last blocks included — the program really does access those bytes; only
    TD-NUCA *management* excludes them, per Section III-D).
    """
    return TaskTrace(trace_signature(task, amap))


def bracket(trace: TaskTrace, first: int, stop: int) -> tuple[tuple, tuple]:
    """``trace``'s runs and segments with a read sweep of blocks ``[first,
    stop)`` before them and a write sweep after (a core's runtime/stack
    traffic around every task)."""
    runs = (first, stop, 1, READ) + trace.runs + (first, stop, 1, WRITE)
    segments = trace.segments
    if not segments or segments[-1][1] <= first:
        segments = segments + ((first, stop, True),)
    elif stop <= segments[0][0]:
        segments = ((first, stop, True),) + segments
    else:
        segments = unique_segments(runs)
    return runs, segments


def trace_signature(task: Task, amap: AddressMap) -> tuple:
    """``task``'s flat block runs: everything :func:`build_trace` derives a
    trace from, as a hashable key.

    Two tasks with equal signatures produce identical traces, so the
    trace can be shared: task-dataflow programs re-execute the same kernel
    shapes over and over (every Jacobi sweep, every k-means assign phase).
    The cache keeps the key as the trace's own ``runs``, so a cached shape
    is stored once.
    """
    shift = amap.block_shift
    runs: list[int] = []
    for chunk in task.effective_accesses():
        region = chunk.region
        if region.size <= 0:
            continue
        runs += (
            region.start >> shift,
            ((region.start + region.size - 1) >> shift) + 1,
            chunk.passes,
            RMW if chunk.rmw else WRITE if chunk.write else READ,
        )
    return tuple(runs)


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
        geometry = (amap.block_bytes, amap.page_bytes, amap.physical_address_bits)
        trace = entries.pop((geometry, trace_signature(task, amap)), None)
        if trace is None:
            self.misses += 1
            if len(entries) >= self.max_entries:
                # dicts iterate in insertion order; with the pop/reinsert
                # on every hit below, the first key is the LRU entry.
                del entries[next(iter(entries))]
            trace = build_trace(task, amap)
        else:
            self.hits += 1
        # (Re)insert at the most-recent position, keyed by the trace's own
        # runs so the stored key shares them.
        entries[(geometry, trace.runs)] = trace
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
