"""Task Dependency Graph construction.

Tasks are inserted in program order; edges are derived from their declared
dependencies exactly as a task-dataflow runtime does:

* RAW — a reader depends on the last writer of an overlapping region;
* WAW — a writer depends on the last writer;
* WAR — a writer depends on every reader since the last write.

Two overlap-detection modes are provided.  ``exact`` (default) keys regions
by ``(start, size)`` — O(1) per dependency, and sufficient for the paper's
benchmarks, whose array-section annotations tile the data identically across
tasks.  ``interval`` performs full interval-overlap analysis for programs
with partially overlapping sections, through a size-class index that looks
only at states which could overlap the query.

Edges depend only on *which* states a dependency overlaps: linking a new
task appends it to each predecessor's successor list, whatever order the
predecessors are visited in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.deps import DepMode
from repro.mem.region import Region
from repro.runtime.task import Task, TaskState

__all__ = ["TaskGraph"]


@dataclass
class _RegionState:
    """Dataflow state of one region key."""

    region: Region
    last_writer: Task | None = None
    readers_since_write: list[Task] = field(default_factory=list)
    # Bounds denormalized from ``region`` so the interval-mode overlap
    # scan compares plain ints instead of calling Region properties.
    start: int = 0
    end: int = 0

    def __post_init__(self) -> None:
        self.start = self.region.start
        self.end = self.region.start + self.region.size


@dataclass
class _Node:
    task: Task
    pending: int = 0
    successors: list[Task] = field(default_factory=list)
    # Edge dedup: predecessor tids already linked.
    preds: set[int] = field(default_factory=set)


class TaskGraph:
    """Incremental TDG over one phase of a program."""

    def __init__(self, overlap_mode: str = "exact") -> None:
        if overlap_mode not in ("exact", "interval"):
            raise ValueError("overlap_mode must be 'exact' or 'interval'")
        self.overlap_mode = overlap_mode
        self._regions: dict[tuple[int, int], _RegionState] = {}
        self._nodes: dict[int, _Node] = {}
        # Interval mode: states indexed by size class.  A state of size in
        # [2^(k-1), 2^k) sits in class k's bucket ``start >> k``, so one that
        # overlaps ``[lo, hi)`` starts in ``(lo - 2^k, hi)``: a query visits
        # a few buckets per class, at any scale.
        self._classes: dict[int, dict[int, list[_RegionState]]] = {}
        self.edges = 0

    # --- construction ---

    def _states_overlapping(self, region: Region) -> list[_RegionState]:
        key = (region.start, region.size)
        if self.overlap_mode == "exact":
            state = self._regions.get(key)
            if state is None:
                state = _RegionState(region)
                self._regions[key] = state
            return [state]
        out: list[_RegionState] = []
        r_start = region.start
        r_end = r_start + region.size
        if region.size > 0:
            for shift, buckets in self._classes.items():
                for b in range((r_start >> shift) - 1, ((r_end - 1) >> shift) + 1):
                    for state in buckets.get(b, ()):
                        if state.start < r_end and r_start < state.end:
                            out.append(state)
        if key not in self._regions:
            state = _RegionState(region)
            self._regions[key] = state
            if region.size > 0:
                shift = region.size.bit_length()
                self._classes.setdefault(shift, {}).setdefault(
                    r_start >> shift, []
                ).append(state)
            out.append(state)
        return out

    def _link(self, pred: Task, succ_node: _Node) -> None:
        if pred.tid == succ_node.task.tid or pred.state is TaskState.FINISHED:
            return
        if pred.tid in succ_node.preds:
            return
        succ_node.preds.add(pred.tid)
        succ_node.pending += 1
        self._nodes[pred.tid].successors.append(succ_node.task)
        self.edges += 1

    def add_task(self, task: Task) -> None:
        """Insert ``task``, deriving edges from program order."""
        if task.tid in self._nodes:
            raise ValueError(f"task {task.tid} already in graph")
        node = _Node(task)
        self._nodes[task.tid] = node
        deps = task.deps
        # One overlap query per dependency; the update pass below reuses it.
        overlapping: list[list[_RegionState]] = []
        created: list[tuple[int, _RegionState]] = []
        for dep in deps:
            known = len(self._regions)
            states = self._states_overlapping(dep.region)
            if len(self._regions) > known:
                created.append((len(overlapping), states[-1]))
            overlapping.append(states)
            mode = dep.mode
            for state in states:
                if mode is not DepMode.OUT and state.last_writer is not None:
                    self._link(state.last_writer, node)  # RAW
                if mode is not DepMode.IN:
                    if state.last_writer is not None:
                        self._link(state.last_writer, node)  # WAW
                    for reader in state.readers_since_write:
                        self._link(reader, node)  # WAR
        if self.overlap_mode == "interval":
            # A state a later dependency created overlaps an earlier one
            # too, as a query made now would find.
            for j, state in created:
                for i in range(j):
                    r_start = deps[i].region.start
                    if state.start < r_start + deps[i].region.size and r_start < state.end:
                        overlapping[i].append(state)
        # Second pass: update region states (a task reading and writing the
        # same region must not self-link).
        for dep, states in zip(deps, overlapping):
            mode = dep.mode
            for state in states:
                if mode is DepMode.IN:
                    state.readers_since_write.append(task)
                else:
                    state.last_writer = task
                    state.readers_since_write.clear()

    # --- execution-side interface ---

    def initial_ready(self) -> list[Task]:
        """Tasks with no pending predecessors, in insertion order."""
        ready = [n.task for n in self._nodes.values() if n.pending == 0]
        for t in ready:
            t.state = TaskState.READY
        return ready

    def mark_finished(self, task: Task) -> list[Task]:
        """Complete ``task``; returns newly ready successors."""
        node = self._nodes[task.tid]
        task.state = TaskState.FINISHED
        ready = []
        for succ in node.successors:
            snode = self._nodes[succ.tid]
            snode.pending -= 1
            if snode.pending == 0:
                succ.state = TaskState.READY
                ready.append(succ)
            elif snode.pending < 0:
                raise RuntimeError(f"negative pending count on task {succ.tid}")
        return ready

    @property
    def num_tasks(self) -> int:
        return len(self._nodes)

    def pending_of(self, task: Task) -> int:
        return self._nodes[task.tid].pending

    def successors_of(self, task: Task) -> list[Task]:
        return list(self._nodes[task.tid].successors)

    def all_finished(self) -> bool:
        return all(n.task.state is TaskState.FINISHED for n in self._nodes.values())
