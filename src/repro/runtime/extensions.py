"""Runtime-system extensions (Section III-C2 operational model).

:class:`TdNucaRuntime` is the paper's runtime extension: it maintains the
RTCacheDirectory across task creation/start/end, runs the Fig.-7 placement
decision for every dependency of every starting task, and drives the
hardware through the three ``tdnuca_*`` instructions:

* **task created**  — ``UseDesc += 1`` per dependency;
* **task starts**   — ``UseDesc -= 1``; lazily invalidate replicas when a
  replicated dependency is about to be written; decide placement; issue
  ``tdnuca_register`` with the BankMask; update ``MapMask``;
* **task ends**     — bypassed deps: flush L1 + de-register; local-bank
  deps: flush that LLC bank and the core's private cache + de-register;
  replicated deps: left in place for future tasks.

The ``execute_isa=False`` mode reproduces the Section V-E "runtime
extensions overhead" experiment: all software bookkeeping runs (and is
charged cycles), but no instruction reaches the hardware, so the cache
hierarchy behaves exactly as S-NUCA.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.isa import TdNucaISA
from repro.core.policy import Placement, PlacementKind, decide_placement
from repro.core.rtdirectory import RTCacheDirectory
from repro.deps import DepMode
from repro.mem.region import Region
from repro.noc.topology import Mesh
from repro.runtime.task import Task

__all__ = ["RuntimeExtension", "TdNucaRuntime", "DependencyUsage"]


class RuntimeExtension:
    """No-op extension; the baseline runtimes (S-NUCA, R-NUCA) use this."""

    def on_task_created(self, task: Task) -> int:
        """Hook at task creation; returns creator-thread cycles."""
        return 0

    def on_task_start(self, task: Task, core: int) -> int:
        """Hook after scheduling, before execution; returns core cycles."""
        return 0

    def on_task_end(self, task: Task, core: int) -> int:
        """Hook at task completion; returns core cycles."""
        return 0

    def state_dict(self) -> dict:
        """Checkpoint payload; the no-op extension has no state."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        if state:
            raise ValueError("no-op runtime extension cannot load state")


@dataclass
class DependencyUsage:
    """Whole-run census of one dependency (feeds Fig. 3's right bars)."""

    region: Region
    uses: int = 0
    bypassed_uses: int = 0
    read_uses: int = 0
    write_uses: int = 0

    @property
    def always_bypassed(self) -> bool:
        return self.uses > 0 and self.bypassed_uses == self.uses

    def category(self) -> str:
        """``not_reused`` / ``in`` / ``out`` / ``both`` (paper Fig. 3)."""
        if self.always_bypassed:
            return "not_reused"
        if self.read_uses and self.write_uses:
            return "both"
        return "in" if self.read_uses else "out"


@dataclass
class TdNucaRuntimeStats:
    decisions: int = 0
    bypass_decisions: int = 0
    local_decisions: int = 0
    replicate_decisions: int = 0
    untracked_decisions: int = 0
    lazy_invalidations: int = 0
    #: software-side cycles (directory ops + decisions), excluding ISA.
    software_cycles: int = 0
    # RRT occupancy sampling (one sample per task start, all cores) for the
    # Section V-E occupancy study.
    occupancy_sample_sum: int = 0
    occupancy_samples: int = 0
    occupancy_max: int = 0

    @property
    def mean_rrt_occupancy(self) -> float:
        if not self.occupancy_samples:
            return 0.0
        return self.occupancy_sample_sum / self.occupancy_samples


class TdNucaRuntime(RuntimeExtension):
    """The TD-NUCA software layer."""

    #: cycles per RTCacheDirectory update (inc/dec/lookup).
    DIRECTORY_OP_CYCLES = 8
    #: cycles per placement decision (the Fig.-7 walk + mask build).
    DECISION_CYCLES = 20

    def __init__(
        self,
        mesh: Mesh,
        isa: TdNucaISA,
        bypass_only: bool = False,
        execute_isa: bool = True,
    ) -> None:
        self.mesh = mesh
        self.isa = isa
        self.bypass_only = bypass_only
        self.execute_isa = execute_isa
        self.directory = RTCacheDirectory()
        self.stats = TdNucaRuntimeStats()
        self.usage: dict[tuple[int, int], DependencyUsage] = {}
        self._active: dict[int, list[tuple[Region, Placement]]] = {}
        self._all_cores_mask = (1 << mesh.num_tiles) - 1

    # --- census helper ---

    def _usage(self, region: Region) -> DependencyUsage:
        key = (region.start, region.size)
        u = self.usage.get(key)
        if u is None:
            u = DependencyUsage(region)
            self.usage[key] = u
        return u

    # --- lifecycle hooks ---

    def on_task_created(self, task: Task) -> int:
        cycles = 0
        for dep in task.deps:
            self.directory.inc_use(dep.region)
            cycles += self.DIRECTORY_OP_CYCLES
        self.stats.software_cycles += cycles
        return cycles

    def on_task_start(self, task: Task, core: int) -> int:
        cycles = 0
        records: list[tuple[Region, Placement]] = []
        isa = self.isa if self.execute_isa else None
        all_cores = self._all_cores_mask
        for dep in task.deps:
            region = dep.region
            writes = dep.mode is not DepMode.IN
            entry = self.directory.dec_use(region)
            cycles += self.DIRECTORY_OP_CYCLES
            # Every instruction below shares one walk of the dependency.
            walk = isa.walk(core, region) if isa is not None else None

            # Lazy invalidation: a replicated (read-only) dependency is
            # about to be written -> drop every replica and RRT entry.
            if entry.replicated and writes:
                self.stats.lazy_invalidations += 1
                if isa is not None:
                    cycles += isa.tdnuca_invalidate(core, region, all_cores, walk)
                    cycles += isa.tdnuca_flush(
                        core, region, "l1", all_cores, walk
                    ).cycles
                    cycles += isa.tdnuca_flush(
                        core, region, "llc", all_cores, walk
                    ).cycles
                entry.map_mask = 0
                entry.replicated = False

            placement = decide_placement(
                entry, dep.mode, core, self.mesh, self.bypass_only
            )
            cycles += self.DECISION_CYCLES
            self._count_decision(placement)

            usage = self._usage(region)
            usage.uses += 1
            if placement.kind is PlacementKind.BYPASS:
                usage.bypassed_uses += 1
            if dep.mode is not DepMode.OUT:
                usage.read_uses += 1
            if writes:
                usage.write_uses += 1

            if placement.kind is not PlacementKind.UNTRACKED:
                if placement.kind is PlacementKind.BYPASS and entry.map_mask:
                    # Last predicted use of a dependency that still has
                    # replicas (or a stale mapping) from earlier tasks:
                    # retire them everywhere before bypassing.  This is
                    # what bounds RRT occupancy in replication-heavy
                    # programs (the paper's LU peaks at 37 of 64 entries).
                    if isa is not None:
                        cycles += isa.tdnuca_invalidate(
                            core, region, all_cores, walk
                        )
                        cycles += isa.tdnuca_flush(
                            core, region, "llc", entry.map_mask, walk
                        ).cycles
                if isa is not None:
                    cycles += isa.tdnuca_register(
                        core, region, placement.bank_mask, walk
                    )
                if placement.kind is PlacementKind.CLUSTER_REPLICATE:
                    entry.map_mask |= placement.bank_mask
                    entry.replicated = True
                else:
                    entry.map_mask = placement.bank_mask
                    entry.replicated = False
            entry.ever_written = entry.ever_written or writes
            records.append((region, placement))
        self._active[task.tid] = records
        self.stats.software_cycles += cycles
        self._sample_occupancy()
        return cycles

    def _sample_occupancy(self) -> None:
        s = self.stats
        occupancy = [rrt.occupancy for rrt in self.isa.rrts]
        if not occupancy:
            return
        s.occupancy_sample_sum += sum(occupancy)
        s.occupancy_samples += len(occupancy)
        peak = max(occupancy)
        if peak > s.occupancy_max:
            s.occupancy_max = peak

    def on_task_end(self, task: Task, core: int) -> int:
        cycles = 0
        isa = self.isa if self.execute_isa else None
        for region, placement in self._active.pop(task.tid, []):
            if placement.kind is PlacementKind.BYPASS:
                if isa is not None:
                    walk = isa.walk(core, region)
                    cycles += isa.tdnuca_flush(
                        core, region, "l1", 1 << core, walk
                    ).cycles
                    cycles += isa.tdnuca_invalidate(core, region, 1 << core, walk)
            elif placement.kind is PlacementKind.LOCAL_BANK:
                entry = self.directory.entry(region)
                if isa is not None:
                    walk = isa.walk(core, region)
                    cycles += isa.tdnuca_flush(
                        core, region, "llc", placement.bank_mask, walk
                    ).cycles
                    cycles += isa.tdnuca_flush(
                        core, region, "l1", 1 << core, walk
                    ).cycles
                    cycles += isa.tdnuca_invalidate(core, region, 1 << core, walk)
                entry.map_mask = 0
            # CLUSTER_REPLICATE / UNTRACKED: mapping (if any) remains.
        self.stats.software_cycles += cycles
        return cycles

    def _count_decision(self, placement: Placement) -> None:
        s = self.stats
        s.decisions += 1
        if placement.kind is PlacementKind.BYPASS:
            s.bypass_decisions += 1
        elif placement.kind is PlacementKind.LOCAL_BANK:
            s.local_decisions += 1
        elif placement.kind is PlacementKind.CLUSTER_REPLICATE:
            s.replicate_decisions += 1
        else:
            s.untracked_decisions += 1

    def reset_stats(self) -> None:
        """Zero counters and the usage census (post-warmup measurement);
        the RTCacheDirectory itself persists."""
        self.stats = TdNucaRuntimeStats()
        self.usage.clear()

    # --- checkpoint/restore ---

    def state_dict(self) -> dict:
        """Directory, counters and usage census.  Snapshots happen only at
        task boundaries, where no task is in flight — ``_active`` must be
        empty (it is rebuilt per task, not restored)."""
        from dataclasses import asdict

        if self._active:
            raise RuntimeError(
                "cannot snapshot runtime state with tasks in flight"
            )
        return {
            "directory": self.directory.state_dict(),
            "stats": asdict(self.stats),
            "usage": [
                (u.region.start, u.region.size, u.uses, u.bypassed_uses,
                 u.read_uses, u.write_uses)
                for u in self.usage.values()
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        self.directory.load_state_dict(state["directory"])
        self.stats = TdNucaRuntimeStats(**state["stats"])
        self.usage = {
            (int(start), int(size)): DependencyUsage(
                Region(int(start), int(size)),
                int(uses), int(bypassed), int(reads), int(writes),
            )
            for start, size, uses, bypassed, reads, writes in state["usage"]
        }
        self._active = {}

    # --- OS thread migration (paper Section III-D) ---

    def on_thread_migration(self, src_core: int, dst_core: int) -> int:
        """The OS moved a thread: migrate its RRT entries to the new core
        and invalidate the old core's private cache for the regions it was
        tracking (the paper's prescription).  Returns cycles charged."""
        if src_core == dst_core:
            return 0
        cycles = 0
        entries = self.isa.rrts[src_core].entries()
        if self.execute_isa and self.isa.flush_executor is not None and entries:
            # Flush the tracked regions out of the source L1 first.  RRT
            # entries hold *physical* ranges, so the flush goes straight to
            # the executor rather than through the translating instruction.
            amap = self.isa.amap
            blocks: list[int] = []
            for e in entries:
                blocks.extend(
                    range(e.start >> amap.block_shift, ((e.end - 1) >> amap.block_shift) + 1)
                )
            flushed, _ = self.isa.flush_executor(blocks, "l1", (src_core,))
            cycles += flushed
        moved = self.isa.rrts[src_core].migrate_to(self.isa.rrts[dst_core])
        cycles += moved  # one cycle per migrated entry
        return cycles

    # --- Fig.-3 census output ---

    def dependency_categories(self) -> dict[str, list[Region]]:
        """Regions grouped by Fig.-3 category over the whole run."""
        out: dict[str, list[Region]] = {
            "not_reused": [],
            "in": [],
            "out": [],
            "both": [],
        }
        for usage in self.usage.values():
            out[usage.category()].append(usage.region)
        return out
