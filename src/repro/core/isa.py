"""The three TD-NUCA ISA instructions and the flush-completion register.

``tdnuca_register(initial_address, size, BankMask)`` — Section III-A/B2:
walks the virtual pages of a dependency through the executing core's TLB
(Fig. 5), collapses physically contiguous pages into ranges, and registers
each range in the core's RRT.  Ranges that do not fit are dropped (S-NUCA
fallback).  Partially covered first/last cache blocks are excluded
(Section III-D).

``tdnuca_invalidate(initial_address, size, CoreMask)`` — removes the
dependency's entries from the RRTs of the cores in ``CoreMask`` after the
same translation walk.

``tdnuca_flush(initial_address, size, cache_level, CoreMask)`` — flushes
the dependency's cache blocks from the private caches or LLC banks of the
masked tiles.  Completion is signalled through a memory-mapped register
with one bit per core on which the runtime polls.

All instruction latencies are modelled in cycles and surfaced in
:class:`ISAStats` for the Section V-E overhead studies.

A runtime hook issues up to four instructions for one dependency, back to
back on one core.  They share a :class:`DependencyWalk`: the first walks
the pages through the TLB, the rest reuse its trimmed bounds, ranges and
blocks and are credited the TLB outcome a repeated walk would have had.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from repro.config import LatencyConfig
from repro.core.rrt import RRT, decode_bank_mask
from repro.mem.address import AddressMap
from repro.mem.region import Region
from repro.mem.tlb import TLB

__all__ = [
    "DependencyWalk",
    "TdNucaISA",
    "ISAStats",
    "FlushCompletionRegister",
    "FlushOutcome",
]


class FlushCompletionRegister:
    """Memory-mapped register with 1 bit per core (Section III-B4).

    A core's bit is set while a flush it issued is in flight and cleared on
    completion; the runtime polls the register.  The simulator executes
    flushes synchronously, but the register is still driven through the
    same set/clear protocol so the API (and its tests) match the paper.
    """

    def __init__(self, num_cores: int) -> None:
        self.num_cores = num_cores
        self._bits = 0
        self.polls = 0

    def start(self, core: int) -> None:
        self._check(core)
        self._bits |= 1 << core

    def complete(self, core: int) -> None:
        self._check(core)
        self._bits &= ~(1 << core)

    def poll(self) -> int:
        """Read the register (runtime polling loop); returns the bitmask of
        cores with flushes still in flight."""
        self.polls += 1
        return self._bits

    def is_pending(self, core: int) -> bool:
        self._check(core)
        return bool(self._bits >> core & 1)

    def _check(self, core: int) -> None:
        if not 0 <= core < self.num_cores:
            raise ValueError("core out of range")

    def state_dict(self) -> dict:
        return {"bits": self._bits, "polls": self.polls}

    def load_state_dict(self, state: dict) -> None:
        self._bits = int(state["bits"])
        self.polls = int(state["polls"])


@dataclass
class ISAStats:
    registers_executed: int = 0
    invalidates_executed: int = 0
    flushes_executed: int = 0
    translation_tlb_accesses: int = 0
    register_cycles: int = 0
    invalidate_cycles: int = 0
    flush_cycles: int = 0
    blocks_flushed: int = 0
    dirty_blocks_flushed: int = 0

    @property
    def total_cycles(self) -> int:
        return self.register_cycles + self.invalidate_cycles + self.flush_cycles


class FlushOutcome(NamedTuple):
    cycles: int
    flushed: int
    dirty: int


#: callback the machine installs to actually remove blocks from caches and
#: account writeback traffic: (blocks, level, tiles) -> (flushed, dirty).
FlushExecutor = Callable[[list[int], str, tuple[int, ...]], tuple[int, int]]


class DependencyWalk:
    """One dependency's translation, shared by the instructions a runtime
    hook issues for it on one core.

    The first instruction walks the region's pages through the core's TLB
    (:meth:`TdNucaISA._walk_tlb`).  The hook's later instructions walk the
    same pages again, back to back, and nothing touches that TLB in
    between (trace translation goes to the page table, not the TLB), so
    their outcome is known without walking: a region of at most
    ``tlb_entries`` pages hits on every page and leaves the LRU order as it
    was; a larger one misses on every page and ends in the same order.
    Every instruction still counts its own TLB accesses and cycles.
    """

    __slots__ = ("core", "region", "bounds", "ranges", "pages", "_blocks")

    def __init__(self, core: int, region: Region, block_bytes: int) -> None:
        self.core = core
        self.region = region
        # Section III-D: only fully contained cache blocks are managed.
        lo = (region.start + block_bytes - 1) & -block_bytes
        hi = (region.start + region.size) & -block_bytes
        #: trimmed byte bounds ``(lo, hi)``, or None when no whole block fits.
        self.bounds = (lo, hi) if hi > lo else None
        #: collapsed physical byte ranges, once the first walk ran.
        self.ranges: list[tuple[int, int]] | None = None
        #: pages the walk visits.
        self.pages = 0
        self._blocks: list[int] | None = None

    def blocks(self, block_shift: int) -> list[int]:
        """Physical block numbers of the walked ranges (built once)."""
        if self._blocks is None:
            blocks: list[int] = []
            for start, end in self.ranges:
                blocks += range(start >> block_shift, ((end - 1) >> block_shift) + 1)
            self._blocks = blocks
        return self._blocks


class TdNucaISA:
    """Executes the TD-NUCA instructions against the per-core TLBs/RRTs."""

    #: cycles charged per block invalidated by a flush transaction.
    FLUSH_CYCLES_PER_BLOCK = 1
    #: fixed issue cost of each instruction.
    ISSUE_CYCLES = 4

    def __init__(
        self,
        amap: AddressMap,
        tlbs: list[TLB],
        rrts: list[RRT],
        latency: LatencyConfig,
    ) -> None:
        if len(tlbs) != len(rrts):
            raise ValueError("need one TLB and one RRT per core")
        self.amap = amap
        self.tlbs = tlbs
        self.rrts = rrts
        self.latency = latency
        self.completion = FlushCompletionRegister(len(rrts))
        self.stats = ISAStats()
        self.flush_executor: FlushExecutor | None = None
        # Observability hook (repro.obs.Observer.attach plants it): RRT
        # install/drop/evict events are emitted here, where the per-range
        # outcome is known, instead of inside the RRT itself.
        self.obs = None

    # --- checkpoint/restore ---

    def state_dict(self) -> dict:
        """Instruction counters and the completion register.  The TLBs and
        RRTs the ISA drives are owned (and serialized) by the machine."""
        from dataclasses import asdict

        return {
            "stats": asdict(self.stats),
            "completion": self.completion.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        self.stats = ISAStats(**state["stats"])
        self.completion.load_state_dict(state["completion"])

    # --- shared translation walk (Fig. 5) ---

    def walk(self, core: int, region: Region) -> DependencyWalk:
        """A fresh walk of ``region`` on ``core``, to pass to every
        instruction one hook issues for that dependency."""
        return DependencyWalk(core, region, self.amap.block_bytes)

    def _translate(
        self, core: int, region: Region, walk: DependencyWalk | None
    ) -> tuple[DependencyWalk, int | None]:
        """One instruction's translation of ``region`` on ``core``: the
        walk (``walk`` itself when given) and the cycles it costs, or None
        for the cycles when no whole block of the region can be managed."""
        if walk is None:
            walk = self.walk(core, region)
        elif walk.core != core or (walk.region is not region and walk.region != region):
            raise ValueError("walk belongs to another core or region")
        if walk.bounds is None:
            return walk, None
        if walk.ranges is None:
            walk.ranges, walk.pages = self._walk_tlb(core, *walk.bounds)
        else:
            # A repeated walk, credited as the TLB would have answered it
            # (see DependencyWalk).
            tlb = self.tlbs[core]
            if walk.pages <= tlb.entries:
                tlb.stats.hits += walk.pages
            else:
                tlb.stats.misses += walk.pages
        pages = walk.pages
        self.stats.translation_tlb_accesses += pages
        return walk, self.ISSUE_CYCLES + pages * self.latency.tlb_lookup

    def _walk_tlb(self, core: int, r_start: int, r_end: int) -> tuple[list[tuple[int, int]], int]:
        """Iteratively translate bytes ``[r_start, r_end)`` via ``core``'s
        TLB, collapsing contiguous physical pages; returns (ranges, pages)."""
        tlb = self.tlbs[core]
        amap = self.amap
        ranges: list[tuple[int, int]] = []
        run_start = run_end = None
        # TLB lookup and page-table walk inlined: this loop runs once per
        # page of every dependency a hook touches.  Hit/miss stats are
        # batched; LRU order and eviction behave exactly as
        # :meth:`TLB.lookup_page`.
        page_shift = amap.page_shift
        page_mask = amap.page_bytes - 1
        tcache = tlb._cache
        tcache_get = tcache.get
        tlb_entries = tlb.entries
        pt = tlb.pagetable
        pt_map = pt._map
        t_hits = 0
        t_misses = 0
        first_page = r_start >> page_shift
        stop_page = ((r_end - 1) >> page_shift) + 1
        for vpage in range(first_page, stop_page):
            frame = tcache_get(vpage)
            if frame is not None:
                t_hits += 1
                tcache.move_to_end(vpage)
            else:
                t_misses += 1
                frame = pt_map.get(vpage)
                if frame is None:
                    frame = pt._allocate_frame()
                    pt_map[vpage] = frame
                tcache[vpage] = frame
                if len(tcache) > tlb_entries:
                    tcache.popitem(last=False)
            pstart = frame << page_shift
            lo = vpage << page_shift
            if lo < r_start:
                lo = r_start
            hi = (vpage + 1) << page_shift
            if hi > r_end:
                hi = r_end
            plo = pstart + (lo & page_mask)
            phi = pstart + ((hi - 1) & page_mask) + 1
            if run_end is not None and plo == run_end:
                run_end = phi
            else:
                if run_start is not None:
                    ranges.append((run_start, run_end))
                run_start, run_end = plo, phi
        if run_start is not None:
            ranges.append((run_start, run_end))
        tst = tlb.stats
        tst.hits += t_hits
        tst.misses += t_misses
        return ranges, stop_page - first_page

    def _tiles(self, core_mask: int) -> tuple[int, ...]:
        """Tiles named by ``core_mask``, ascending."""
        return decode_bank_mask(core_mask & ((1 << len(self.rrts)) - 1))

    # --- the instructions ---
    #
    # ``walk`` is the issuing hook's shared walk of ``region`` on ``core``
    # (:meth:`walk`); without one, the instruction walks on its own.

    def tdnuca_register(
        self,
        core: int,
        region: Region,
        bank_mask: int,
        walk: DependencyWalk | None = None,
    ) -> int:
        """Register a dependency in ``core``'s RRT; returns cycles spent."""
        self.stats.registers_executed += 1
        walk, cycles = self._translate(core, region, walk)
        if cycles is None:
            self.stats.register_cycles += self.ISSUE_CYCLES
            return self.ISSUE_CYCLES
        rrt = self.rrts[core]
        obs = self.obs
        for start, end in walk.ranges:
            installed = rrt.register(start, end, bank_mask)
            cycles += 1
            if obs is not None:
                if installed:
                    obs.rrt_install(core, start, end, bank_mask)
                else:
                    obs.rrt_drop(core, start, end, bank_mask)
        self.stats.register_cycles += cycles
        return cycles

    def tdnuca_invalidate(
        self,
        core: int,
        region: Region,
        core_mask: int,
        walk: DependencyWalk | None = None,
    ) -> int:
        """Remove the dependency's RRT entries from the masked cores;
        ``core`` executes the instruction (its TLB does the walk)."""
        self.stats.invalidates_executed += 1
        walk, cycles = self._translate(core, region, walk)
        if cycles is None:
            self.stats.invalidate_cycles += self.ISSUE_CYCLES
            return self.ISSUE_CYCLES
        ranges = walk.ranges
        obs = self.obs
        targets = self._tiles(core_mask)
        # One cycle per range and target, whether or not it matches.
        cycles += len(ranges) * len(targets)
        for target in targets:
            removed = self.rrts[target].invalidate_ranges(ranges)
            if obs is not None and removed:
                obs.rrt_evict(target, removed)
        self.stats.invalidate_cycles += cycles
        return cycles

    def tdnuca_flush(
        self,
        core: int,
        region: Region,
        cache_level: str,
        core_mask: int,
        walk: DependencyWalk | None = None,
    ) -> FlushOutcome:
        """Flush the dependency's blocks from the masked tiles' caches.

        ``cache_level`` is ``"l1"`` (private caches) or ``"llc"`` (LLC
        banks), as in the instruction's ``cache_level`` operand.
        """
        if cache_level not in ("l1", "llc"):
            raise ValueError("cache_level must be 'l1' or 'llc'")
        if self.flush_executor is None:
            raise RuntimeError("no flush executor installed")
        self.stats.flushes_executed += 1
        walk, cycles = self._translate(core, region, walk)
        if cycles is None:
            self.stats.flush_cycles += self.ISSUE_CYCLES
            return FlushOutcome(self.ISSUE_CYCLES, 0, 0)
        blocks = walk.blocks(self.amap.block_shift)
        self.completion.start(core)
        flushed, dirty = self.flush_executor(blocks, cache_level, self._tiles(core_mask))
        # The runtime polls until the flush transaction drains; charge the
        # per-block invalidation walk to the instruction.
        cycles += flushed * self.FLUSH_CYCLES_PER_BLOCK
        self.completion.poll()
        self.completion.complete(core)
        self.stats.flush_cycles += cycles
        self.stats.blocks_flushed += flushed
        self.stats.dirty_blocks_flushed += dirty
        return FlushOutcome(cycles, flushed, dirty)
