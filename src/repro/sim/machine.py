"""The machine: cores, private L1s, banked NUCA LLC, coherence directory,
NoC, memory controllers and the active NUCA policy, driven by task traces.

This is the gem5/Ruby stand-in.  :meth:`Machine.run_task_trace` pushes a
task's block trace through the hierarchy:

L1 probe -> (RRT lookup under TD-NUCA) -> policy bank resolution ->
LLC bank access or bypass -> DRAM on miss -> fills, evictions, writebacks,
coherence invalidations -> latency, traffic and energy accounting.

Everything the paper's evaluation section measures falls out of this loop:
LLC accesses and hit ratios (Figs. 9/10), NUCA distances (Fig. 11), NoC
router-bytes (Fig. 12), LLC/NoC dynamic energy events (Figs. 13/14) and
the memory component of execution time (Fig. 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.bank import BankStats
from repro.cache.directory import CoherenceDirectory
from repro.cache.l1 import L1Cache
from repro.cache.llc import NucaLLC
from repro.config import SystemConfig
from repro.core.isa import TdNucaISA
from repro.core.rrt import RRT
from repro.core.tdnuca import TdNucaPolicy
from repro.energy.model import EnergyBreakdown, EnergyTally
from repro.faults.injector import FaultInjector, FaultStats
from repro.faults.invariants import InvariantChecker, InvariantViolation
from repro.faults.schedule import FaultSchedule, parse_fault_spec
from repro.mem.address import AddressMap
from repro.mem.pagetable import PageTable
from repro.mem.tlb import TLB, TLBStats
from repro.noc.topology import Mesh
from repro.noc.traffic import (
    CONTROL_BYTES,
    NUM_MESSAGE_CLASSES,
    MessageClass,
    TrafficStats,
    data_message_bytes,
)
from repro.nuca.base import BYPASS, FlushAction, NucaPolicy
from repro.nuca.dnuca import DNuca
from repro.nuca.rnuca import RNuca
from repro.nuca.snuca import SNuca
from repro.runtime.task import Task
from repro.runtime.trace import (
    bracket,
    build_trace_cached,
    expand_runs,
    run_spans,
    shared_trace_cache,
)
from repro.sim.dram import MemoryControllers
from repro.sim.kernels import make_kernel
from repro.sim.latency import LatencyModel
from repro.stats.counters import BlockCensus

__all__ = ["Machine", "MachineStats", "build_machine", "POLICIES"]

# Dense MessageClass indices as plain ints for the batched accounting.
_REQUEST = int(MessageClass.REQUEST)
_DATA = int(MessageClass.DATA)
_WRITEBACK = int(MessageClass.WRITEBACK)
_INVALIDATION = int(MessageClass.INVALIDATION)
_ACK = int(MessageClass.ACK)
_DRAM_REQUEST = int(MessageClass.DRAM_REQUEST)
_DRAM_DATA = int(MessageClass.DRAM_DATA)

#: recognised policy names for :func:`build_machine`.
POLICIES = (
    "snuca",
    "rnuca",
    "dnuca",
    "tdnuca",
    "tdnuca-bypass-only",
    "tdnuca-noisa",
)


@dataclass
class MachineStats:
    """Post-run snapshot of everything the figures consume."""

    policy: str
    llc: BankStats
    l1: BankStats
    traffic: TrafficStats
    energy: EnergyBreakdown
    tlb: TLBStats
    dram_reads: int
    dram_writes: int
    llc_accesses: int = 0
    llc_hit_ratio: float = 0.0
    mean_nuca_distance: float = 0.0
    router_bytes: int = 0
    bypassed_accesses: int = 0
    #: degraded-mode accounting; ``None`` when no fault schedule attached.
    faults: FaultStats | None = None
    extra: dict = field(default_factory=dict)


class Machine:
    """One simulated 16-core tiled CMP with a pluggable NUCA policy."""

    def __init__(
        self,
        cfg: SystemConfig,
        policy: NucaPolicy,
        *,
        fragmentation: float = 0.03,
        seed: int = 0,
        isa: TdNucaISA | None = None,
        rrts: list[RRT] | None = None,
    ) -> None:
        cfg.validate()
        self.cfg = cfg
        self.amap = AddressMap(
            cfg.block_bytes, cfg.page_bytes, cfg.physical_address_bits
        )
        self.mesh = Mesh(
            cfg.mesh_width, cfg.mesh_height, cfg.cluster_width, cfg.cluster_height
        )
        self.pagetable = PageTable(self.amap, fragmentation, seed)
        self.tlbs = [
            TLB(self.pagetable, cfg.tlb_entries) for _ in range(cfg.num_cores)
        ]
        self.l1s = [
            L1Cache(c, cfg.l1_bytes, cfg.l1_assoc, cfg.block_bytes)
            for c in range(cfg.num_cores)
        ]
        self.llc = NucaLLC(
            cfg.num_banks, cfg.llc_bank_bytes, cfg.llc_assoc, cfg.block_bytes
        )
        self.directory = CoherenceDirectory(cfg.num_cores)
        self.dram = MemoryControllers(self.mesh, cfg.latency)
        self.traffic = TrafficStats(cfg.energy.flit_bytes)
        self.energy = EnergyTally()
        self.latency = LatencyModel(cfg.latency)
        self.policy = policy
        # Simulation kernel: the strategy executing each task's trace,
        # the one ``REPRO_KERNEL`` names (``auto``: the fused engine).
        self.kernel = make_kernel()
        self.census = BlockCensus(cfg.num_cores)
        self.isa = isa
        self.rrts = rrts
        self._dnuca = policy if isinstance(policy, DNuca) else None
        if isa is not None:
            isa.flush_executor = self._execute_flush
        self._data_bytes = data_message_bytes(cfg.block_bytes)
        # Precomputed flit counts: every message in the simulator is either
        # a control message or a whole-block data message, so the hot loop
        # never performs a ceil-division.
        self._flit_bytes = cfg.energy.flit_bytes
        self._ctrl_flits = -(-CONTROL_BYTES // self._flit_bytes)
        self._data_flits = -(-self._data_bytes // self._flit_bytes)
        #: memoized task traces (task-dataflow programs re-run the same
        #: kernel shapes many times).  The process-wide LRU is keyed by
        #: address-map geometry + task signature, so machines in a sweep
        #: — and both backends under the verify kernel — share traces.
        self._trace_cache = shared_trace_cache
        # Pending traffic batch: the per-reference loop and the coherence
        # helpers accumulate message deltas here; they are validated and
        # drained into :attr:`traffic` once per task (see _flush_traffic).
        self._reset_pending()
        # Fault injection / strict checking (idle unless configured).
        self.tasks_completed = 0
        self.fault_injector: FaultInjector | None = None
        # Observability hook (repro.obs.Observer.attach plants it); None
        # keeps every traced code path a single attribute test, so runs
        # with tracing off stay byte-identical to the golden snapshots.
        self.obs = None
        self.invariant_checker = (
            InvariantChecker(cfg.strict_check_interval)
            if cfg.strict_invariants
            else None
        )
        self._dead_banks: set[int] = set()
        self._alive_banks: list[int] = list(range(cfg.num_banks))
        # Per-core runtime/stack scratch regions (non-dependency traffic),
        # as virtual block spans ``(first, stop)``.  Placed at the top of
        # the virtual address space so they can never alias workload
        # allocations (which grow upward from 0x1000).
        scratch_base = 1 << 40
        stride = max(cfg.page_bytes, cfg.nondep_blocks_per_task * cfg.block_bytes)
        self._scratch_spans: list[tuple[int, int] | None] = []
        for c in range(cfg.num_cores):
            start = (scratch_base + c * stride) >> self.amap.block_shift
            self._scratch_spans.append(
                (start, start + cfg.nondep_blocks_per_task)
                if cfg.nondep_blocks_per_task
                else None
            )
        self._forget_scratch()

    @property
    def num_cores(self) -> int:
        return self.cfg.num_cores

    def _forget_scratch(self) -> None:
        """Drop each core's translated scratch sweep, so its next task
        translates the scratch again and re-folds it into the census (after
        a new census or a restored page table)."""
        self._scratch_sweeps: list[list[int] | None] = [None] * self.cfg.num_cores

    # ------------------------------------------------------------------
    # batched traffic accounting
    # ------------------------------------------------------------------

    def _reset_pending(self) -> None:
        """Zero the pending traffic batch (dropping anything unflushed)."""
        self._acc_router_bytes = 0
        self._acc_flit_hops = 0
        self._acc_messages = 0
        self._acc_class_bytes = [0] * NUM_MESSAGE_CLASSES
        self._acc_nuca_sum = 0
        self._acc_nuca_count = 0

    def _record(self, msg_class: int, size_bytes: int, hop_count: int) -> None:
        """Accumulate one message into the pending batch.

        This is the coherence/flush helpers' counterpart of
        :meth:`TrafficStats.record_message`; range validation happens once
        per batch in :meth:`TrafficStats.add_batch` instead of here.
        """
        routers = hop_count + 1
        self._acc_router_bytes += size_bytes * routers
        self._acc_flit_hops += -(-size_bytes // self._flit_bytes) * routers
        self._acc_messages += 1
        self._acc_class_bytes[msg_class] += size_bytes

    def _flush_traffic(self) -> None:
        """Drain the pending batch into :attr:`traffic` (validated there)."""
        if self._acc_messages or self._acc_nuca_count:
            self.traffic.add_batch(
                self._acc_router_bytes,
                self._acc_flit_hops,
                self._acc_messages,
                self._acc_class_bytes,
                self._acc_nuca_sum,
                self._acc_nuca_count,
            )
            self._reset_pending()

    # ------------------------------------------------------------------
    # trace execution (the hot path)
    # ------------------------------------------------------------------

    def run_task_trace(self, core: int, task: Task) -> int:
        """Apply ``task``'s memory trace issued from ``core``; returns the
        memory + per-access compute cycles it took.

        Everything before the kernel works on the trace's block runs: the
        census folds its unique-block segments, translation maps each run
        a page at a time, and only then is the per-reference physical
        sequence expanded, with list copies, for the kernel to walk.
        """
        trace = build_trace_cached(task, self.amap, self._trace_cache)
        runs, segments = trace.runs, trace.segments
        scratch = self._scratch_spans[core]
        if scratch is not None:
            # Runtime/stack traffic: one read and one write sweep per task.
            runs, segments = bracket(trace, *scratch)
        if not runs:
            self._task_boundary(core)
            return 0
        # A core's scratch blocks are the same in every task: once folded
        # into the census and translated, they are saturated there and
        # their physical sweep is fixed, so later tasks skip both.
        scratch_sweep = self._scratch_sweeps[core]
        self.census.record(
            core, segments if scratch_sweep is None else trace.segments
        )
        if scratch_sweep is None:
            sweeps = self.pagetable.translate_blocks(run_spans(runs))
            if scratch is not None:
                self._scratch_sweeps[core] = sweeps[0]
        else:
            sweeps = self.pagetable.translate_blocks(run_spans(trace.runs))
            sweeps = [scratch_sweep, *sweeps, scratch_sweep]
        if self.policy.classifies_pages:
            # Batch OS page classification (R-NUCA); reads before writes.
            frames, wrote = self.pagetable.written_frames(segments)
            for action in self.policy.classify_pages(core, frames, wrote):
                self._apply_flush_action(action)
        pblocks, writes = expand_runs(runs, sweeps)
        cycles = self._run_blocks(core, pblocks, writes, task.compute_per_access)
        self._task_boundary(core)
        return cycles

    def _task_boundary(self, core: int = -1) -> None:
        """One task's trace finished: fire due faults, then (strict mode)
        check invariants against the now-quiescent hierarchy, then let the
        observer attribute the task's bank deltas and sample its timeline."""
        self._flush_traffic()
        self.tasks_completed += 1
        if self.fault_injector is not None:
            self.fault_injector.on_task_boundary(self.tasks_completed)
        if self.invariant_checker is not None:
            self.invariant_checker.on_task_boundary(self, self.tasks_completed)
        if self.obs is not None:
            self.obs.on_task_boundary(self, core)

    def _run_blocks(
        self,
        core: int,
        pblocks: list[int],
        writes: list[bool],
        compute_per_access: int | None = None,
    ) -> int:
        """Execute one task's translated trace (physical block and write
        flag per reference, as lists) via the active kernel.

        The per-reference interpreter lives in
        :mod:`repro.sim.kernels.reference`; the fused specialized engine
        in :mod:`repro.sim.kernels.vector`.  Both must produce byte-identical
        machine state (the golden snapshots are the gate)."""
        return self.kernel.run_blocks(
            self, core, pblocks, writes, compute_per_access
        )

    # ------------------------------------------------------------------
    # fault injection (graceful degradation)
    # ------------------------------------------------------------------

    def attach_faults(self, schedule: FaultSchedule, seed: int = 0) -> FaultInjector:
        """Install a fault schedule; fires any ``at_task=0`` events now."""
        if self.fault_injector is not None:
            raise RuntimeError("a fault schedule is already attached")
        injector = FaultInjector(self, schedule, seed)
        self.fault_injector = injector
        injector.activate()
        return injector

    def fail_bank(self, bank: int) -> dict[str, int]:
        """Hard-fail one LLC bank: its contents are lost, the policy remaps
        future accesses to surviving banks, orphaned L1 copies are
        back-invalidated (dirty ones drain to DRAM — the L1s still work)
        and TD-NUCA RRT entries naming the bank are invalidated.  Returns
        the loss accounting for :class:`repro.faults.injector.FaultStats`."""
        victims = self.llc.banks[bank].resident_items()
        self.llc.kill_bank(bank)
        self.policy.disable_bank(bank)
        self._dead_banks.add(bank)
        self._alive_banks = [
            b for b in range(self.cfg.num_banks) if b not in self._dead_banks
        ]
        l1_dropped = 0
        for block, _dirty in victims:
            if self.llc.any_bank_holds(block):
                continue  # a replica in a live bank preserves inclusion
            for core in self.directory.drop_block(block):
                present, was_dirty = self.l1s[core].invalidate(block)
                if not present:
                    continue
                l1_dropped += 1
                if was_dirty:
                    mc, _ = self.dram.write(block)
                    self._record(
                        _WRITEBACK, self._data_bytes, self.mesh.dist_rows[core][mc]
                    )
                    self.energy.dram_accesses += 1
        rrt_dropped = 0
        if self.rrts is not None:
            for rrt in self.rrts:
                rrt_dropped += rrt.drop_bank_entries(bank)
        report = {
            "blocks_lost": len(victims),
            "dirty_blocks_lost": sum(1 for _, d in victims if d),
            "l1_copies_dropped": l1_dropped,
            "rrt_entries_dropped": rrt_dropped,
        }
        if self.obs is not None:
            self.obs.nuca_remap(bank, report)
        return report

    def fail_link(self, a: int, b: int) -> None:
        """Hard-fail one NoC link; the mesh recomputes all distances over
        the surviving links (fault-aware fallback routing)."""
        self.mesh.fail_link(a, b)

    def _home_bank(self, block: int) -> int:
        """Static home bank for coherence traffic, remapped around dead
        banks the same way the policies remap (block-interleaved over the
        survivors)."""
        bank = block % self.cfg.num_banks
        if self._dead_banks and bank in self._dead_banks:
            alive = self._alive_banks
            bank = alive[block % len(alive)]
        return bank

    def check_invariants(self) -> list[InvariantViolation]:
        """Full machine-wide invariant sweep; [] means consistent."""
        from repro.faults.invariants import check_machine

        self._flush_traffic()
        return check_machine(self)

    # ------------------------------------------------------------------
    # coherence and writeback helpers
    # ------------------------------------------------------------------

    def _write_hit_coherence(self, core: int, block: int) -> None:
        """Upgrade on an L1 write hit: invalidate remote sharers."""
        directory = self.directory
        mask = directory.sharer_mask(block)
        bit = 1 << core
        if mask & ~bit:
            actions = directory.on_l1_fill(core, block, True)
            bank = self._home_bank(block)  # upgrade goes to home bank
            self._coherence_actions(core, block, bank, actions)
        elif directory.owner(block) != core:
            # Silent E->M (or stale-presence) upgrade: just take ownership.
            directory.on_l1_fill(core, block, True)

    def _coherence_actions(self, core: int, block: int, bank: int, actions) -> int:
        """Perform invalidations/downgrades; returns added cycles."""
        home = bank if bank != BYPASS else self._home_bank(block)
        dist_home = self.mesh.dist_rows[home]
        per_hop = self.latency.per_hop
        cycles = 0
        for victim_core in actions.invalidate:
            hops = dist_home[victim_core]
            self._record(_INVALIDATION, CONTROL_BYTES, hops)
            self._record(_ACK, CONTROL_BYTES, hops)
            present, dirty = self.l1s[victim_core].invalidate(block)
            if present and dirty and victim_core != actions.writeback_from:
                self._writeback_to_llc(victim_core, block, home)
            cycles = max(cycles, 2 * hops * per_hop)
        wb = actions.writeback_from
        if wb is not None and wb not in actions.invalidate:
            # Downgrade: owner supplies data and keeps a clean copy.
            self.l1s[wb].make_clean(block)
            self._writeback_to_llc(wb, block, home)
            cycles = max(cycles, 2 * dist_home[wb] * per_hop)
        elif wb is not None:
            self._writeback_to_llc(wb, block, home)
        return cycles

    def _writeback_to_llc(self, core: int, block: int, bank: int) -> None:
        """Dirty data moves from ``core``'s L1 into ``bank``."""
        self._record(_WRITEBACK, self._data_bytes, self.mesh.dist_rows[core][bank])
        llc = self.llc
        if llc._dead and bank in llc._dead:
            raise RuntimeError(
                f"access routed to dead LLC bank {bank}; policy remap failed"
            )
        energy = self.energy
        energy.llc_tag_probes += 1
        energy.llc_data_writes += 1  # hit-write and miss-fill both write data
        bank_obj = llc.banks[bank]
        if not bank_obj.probe(block, True):
            evicted, evicted_dirty = bank_obj.fill_demand(block, True)
            if evicted >= 0:
                self._llc_eviction(bank, evicted, evicted_dirty)

    def _migrate_block(self, migration) -> None:
        """D-NUCA gradual migration: move the block one bank over."""
        present, dirty = self.llc.banks[migration.src_bank].invalidate(
            migration.block
        )
        if not present:
            return
        self._record(
            _DATA,
            self._data_bytes,
            self.mesh.dist_rows[migration.src_bank][migration.dst_bank],
        )
        energy = self.energy
        energy.llc_data_reads += 1  # victim read out at the source bank
        res = self.llc.banks[migration.dst_bank].fill(migration.block, dirty)
        energy.llc_tag_probes += 1
        energy.llc_data_writes += 1  # fill at the destination
        if res.evicted is not None:
            if self._dnuca is not None:
                self._dnuca.evicted(res.evicted)
            self._llc_eviction(migration.dst_bank, res.evicted, res.evicted_dirty)

    def _llc_eviction(self, bank: int, victim: int, dirty: bool) -> None:
        """An LLC fill displaced ``victim``: write back if dirty and
        back-invalidate L1 copies (the LLC is inclusive)."""
        if self._dnuca is not None:
            self._dnuca.evicted(victim)
        dist_bank = self.mesh.dist_rows[bank]
        data_bytes = self._data_bytes
        data_flits = self._data_flits
        acc_cb = self._acc_class_bytes
        if dirty:
            self.energy.llc_data_reads += 1  # victim read out for writeback
            mc, _ = self.dram.write(victim)
            # _record(_WRITEBACK, ...) inlined (LLC fills evict constantly).
            routers = dist_bank[mc] + 1
            self._acc_router_bytes += data_bytes * routers
            self._acc_flit_hops += data_flits * routers
            self._acc_messages += 1
            acc_cb[_WRITEBACK] += data_bytes
            self.energy.dram_accesses += 1
        # Inclusive LLC: if no other bank holds a replica (the residency
        # mask answers), L1 copies must go.  CoherenceDirectory.drop_block
        # and L1Cache.invalidate are inlined: LLC fills evict constantly.
        if victim in self.llc._where:
            return
        directory = self.directory
        owners = directory._owner
        if victim in owners:
            del owners[victim]
        sharers = directory._sharers
        if victim not in sharers:
            return
        mask = sharers[victim]
        del sharers[victim]
        ctrl_flits = self._ctrl_flits
        d_stats = directory.stats
        while mask:
            low = mask & -mask
            mask ^= low
            core = low.bit_length() - 1
            d_stats.invalidations_sent += 1
            routers = dist_bank[core] + 1
            self._acc_router_bytes += 2 * CONTROL_BYTES * routers
            self._acc_flit_hops += 2 * ctrl_flits * routers
            self._acc_messages += 2
            acc_cb[_INVALIDATION] += CONTROL_BYTES
            acc_cb[_ACK] += CONTROL_BYTES
            l1 = self.l1s[core]
            s = victim & l1._set_mask
            smap = l1._map[s]
            if victim not in smap:
                continue
            way = smap[victim]
            del smap[victim]
            l1._ways[s][way] = None
            drow = l1._dirty[s]
            was_dirty = drow[way]
            drow[way] = False
            l1._occupancy -= 1
            l1.stats.invalidations += 1
            if was_dirty:
                mc, _ = self.dram.write(victim)
                routers = self.mesh.dist_rows[core][mc] + 1
                self._acc_router_bytes += data_bytes * routers
                self._acc_flit_hops += data_flits * routers
                self._acc_messages += 1
                acc_cb[_WRITEBACK] += data_bytes
                self.energy.dram_accesses += 1

    # ------------------------------------------------------------------
    # flush execution (tdnuca_flush and R-NUCA reclassification)
    # ------------------------------------------------------------------

    def _apply_flush_action(self, action: FlushAction) -> None:
        """R-NUCA reclassification flush."""
        blocks = list(action.blocks)
        if action.llc_banks:
            self._flush_llc(blocks, action.llc_banks)
        if action.l1_cores:
            self._flush_l1(blocks, action.l1_cores)

    def _execute_flush(
        self, blocks: list[int], level: str, tiles: tuple[int, ...]
    ) -> tuple[int, int]:
        """Installed as the TD-NUCA ISA flush executor."""
        if level == "l1":
            return self._flush_l1(blocks, tiles)
        return self._flush_llc(blocks, tiles)

    def _flush_l1(self, blocks: list[int], cores) -> tuple[int, int]:
        """Flush ``blocks`` from the named cores' L1s through the uniform
        flush accounting (``flushed_blocks``), like every other flush.

        With several cores, only those whose directory presence bit names
        a block can hold it (every L1-resident line has its bit;
        ``faults/invariants.py`` checks that), so each core scans just
        those blocks.  Writebacks keep the (core, block) order of a full
        scan."""
        obs = self.obs
        if obs is not None:
            obs.flush_begin("l1", cores, len(blocks))
        flushed = dirty_total = 0
        directory = self.directory
        if len(cores) == 1:
            scans = ((cores[0], blocks),)
        else:
            present = directory._sharers.get
            wanted = holders = 0
            for core in cores:
                wanted |= 1 << core
            held = [(block, m) for block in blocks if (m := present(block, 0) & wanted)]
            for _, m in held:
                holders |= m
            scans = [
                (core, [block for block, m in held if m >> core & 1])
                for core in cores
                if holders >> core & 1
            ]
        for core, mine in scans:
            removed = self.l1s[core].flush_blocks_collect(mine)
            flushed += len(removed)
            dist_core = self.mesh.dist_rows[core]
            for block, dirty in removed:
                directory.on_l1_evict(core, block, dirty)
                if dirty:
                    dirty_total += 1
                    mc, _ = self.dram.write(block)
                    self._record(_WRITEBACK, self._data_bytes, dist_core[mc])
                    self.energy.dram_accesses += 1
        if obs is not None:
            obs.flush_end("l1", flushed, dirty_total)
        return flushed, dirty_total

    def _flush_llc(self, blocks: list[int], banks) -> tuple[int, int]:
        """Flush ``blocks`` from the named LLC banks.  Every bank is charged
        a tag probe per block; only the blocks a bank holds go through the
        removal and writeback path, in (bank, block) order.  The blocks are
        visited once: the residency mask names the banks holding each."""
        obs = self.obs
        if obs is not None:
            obs.flush_begin("llc", banks, len(blocks))
        flushed = dirty_total = 0
        energy = self.energy
        energy.llc_tag_probes += len(blocks) * len(banks)
        where = self.llc._where
        wanted = holders = 0
        for bank in banks:
            wanted |= 1 << bank
        held = [(block, where[block] & wanted) for block in blocks if block in where]
        for _, m in held:
            holders |= m
        llc_banks = self.llc.banks
        for bank in banks:
            if not holders >> bank & 1:
                continue
            bank_obj = llc_banks[bank]
            removed = bank_obj.flush_blocks_collect(
                [block for block, m in held if m >> bank & 1]
            )
            flushed += len(removed)
            dist_bank = self.mesh.dist_rows[bank]
            for block, dirty in removed:
                if dirty:
                    dirty_total += 1
                    energy.llc_victim_read()
                    mc, _ = self.dram.write(block)
                    self._record(_WRITEBACK, self._data_bytes, dist_bank[mc])
                    energy.dram_accesses += 1
        if obs is not None:
            obs.flush_end("llc", flushed, dirty_total)
        return flushed, dirty_total

    # ------------------------------------------------------------------
    # stats reset (post-warmup measurement window)
    # ------------------------------------------------------------------

    def reset_stats(self) -> None:
        """Zero all counters while keeping cache contents, page mappings
        and OS/RRT classification state — the paper measures only the
        post-initialisation execution phase."""
        from repro.cache.bank import BankStats
        from repro.cache.directory import DirectoryStats
        from repro.core.rrt import RRTStats
        from repro.mem.tlb import TLBStats
        from repro.nuca.base import PolicyStats
        from repro.sim.dram import DramStats

        for l1 in self.l1s:
            l1.stats = BankStats()
        for bank in self.llc.banks:
            bank.stats = BankStats()
        for tlb in self.tlbs:
            tlb.stats = TLBStats()
        self.directory.stats = DirectoryStats()
        self.dram.stats = DramStats()
        self.traffic = TrafficStats(self.cfg.energy.flit_bytes)
        self._reset_pending()  # unflushed warmup deltas die with the window
        self.energy = EnergyTally()
        self.policy.stats = PolicyStats()
        self.census = BlockCensus(self.cfg.num_cores)
        self._forget_scratch()
        if self.rrts is not None:
            for rrt in self.rrts:
                rrt.stats = RRTStats()
        if self.isa is not None:
            from repro.core.isa import ISAStats

            self.isa.stats = ISAStats()
        if self.obs is not None:
            # The observer's trace and baselines restart with the counters
            # so the exported window matches the measured one.
            self.obs.on_stats_reset(self)

    # ------------------------------------------------------------------
    # stats snapshot
    # ------------------------------------------------------------------

    def collect_stats(self) -> MachineStats:
        self._flush_traffic()
        llc = self.llc.aggregate_stats()
        l1 = BankStats()
        for cache in self.l1s:
            l1.merge(cache.stats)
        tlb = TLBStats()
        for t in self.tlbs:
            tlb.merge(t.stats)
        energy = self.energy.breakdown(self.cfg.energy, self.traffic.flit_hops)
        extra: dict = {}
        if self.invariant_checker is not None:
            # Final sweep so even a run shorter than the check interval
            # ends with at least one full consistency proof.
            self.invariant_checker.full_sweep(self)
            extra["invariants"] = {
                "checks_run": self.invariant_checker.checks_run,
                "full_sweeps": self.invariant_checker.full_sweeps,
                "violations": self.invariant_checker.violations_found,
            }
        faults = (
            self.fault_injector.snapshot()
            if self.fault_injector is not None
            else None
        )
        return MachineStats(
            policy=self.policy.name,
            llc=llc,
            l1=l1,
            traffic=self.traffic,
            energy=energy,
            tlb=tlb,
            dram_reads=self.dram.stats.reads,
            dram_writes=self.dram.stats.writes,
            llc_accesses=llc.accesses,
            llc_hit_ratio=llc.hit_ratio,
            mean_nuca_distance=self.traffic.mean_nuca_distance,
            router_bytes=self.traffic.router_bytes,
            bypassed_accesses=self.policy.stats.bypasses,
            faults=faults,
            extra=extra,
        )

    # ------------------------------------------------------------------
    # checkpoint/restore
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Full mutable state at a task boundary.

        Must only be called with the machine quiescent: every task
        boundary flushes the pending traffic batch, so unflushed deltas
        here mean the caller is mid-trace.  Static structure (geometry,
        latency tables, scratch arrays, trace memoization) is rebuilt by
        :func:`build_machine` and is not stored.
        """
        from dataclasses import asdict

        if self._acc_messages or self._acc_nuca_count:
            raise RuntimeError("cannot snapshot with unflushed traffic deltas")
        # tdnuca-noisa machines keep their RRTs only on the ISA
        # (machine.rrts stays None); the TD-NUCA variants share one list.
        rrts = self.isa.rrts if self.isa is not None else self.rrts
        return {
            "tasks_completed": self.tasks_completed,
            "pagetable": self.pagetable.state_dict(),
            "tlbs": [t.state_dict() for t in self.tlbs],
            "l1s": [l1.state_dict() for l1 in self.l1s],
            "llc": self.llc.state_dict(),
            "directory": self.directory.state_dict(),
            "dram": self.dram.state_dict(),
            "traffic": self.traffic.state_dict(),
            "energy": asdict(self.energy),
            "policy": self.policy.state_dict(),
            "census": self.census.state_dict(),
            "rrts": [r.state_dict() for r in rrts] if rrts is not None else None,
            "isa": self.isa.state_dict() if self.isa is not None else None,
            "mesh": self.mesh.state_dict(),
            "dead_banks": sorted(self._dead_banks),
            "fault_injector": (
                self.fault_injector.state_dict()
                if self.fault_injector is not None
                else None
            ),
            "invariant_checker": (
                self.invariant_checker.state_dict()
                if self.invariant_checker is not None
                else None
            ),
            "obs": self.obs.state_dict() if self.obs is not None else None,
        }

    @staticmethod
    def _require_matching(name: str, have: bool, stored: bool) -> None:
        if have != stored:
            raise ValueError(
                f"snapshot/machine mismatch: {name} is "
                f"{'present' if stored else 'absent'} in the snapshot but "
                f"{'present' if have else 'absent'} on this machine"
            )

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot into a freshly built machine.

        The machine must have been built with the same config, policy and
        seed as the snapshotted one (the snapshot file layer verifies
        that); any ``at_task<=0`` fault effects applied during
        construction are overwritten here, and the injector cursor and
        RNG are restored last so the continuation replays the same
        schedule from the same point.
        """
        self.tasks_completed = int(state["tasks_completed"])
        self.pagetable.load_state_dict(state["pagetable"])
        self._forget_scratch()
        for name, mine, stored in (
            ("tlbs", self.tlbs, state["tlbs"]),
            ("l1s", self.l1s, state["l1s"]),
        ):
            if len(mine) != len(stored):
                raise ValueError(f"snapshot {name} count mismatch")
            for obj, s in zip(mine, stored):
                obj.load_state_dict(s)
        self.llc.load_state_dict(state["llc"])
        self.directory.load_state_dict(state["directory"])
        self.dram.load_state_dict(state["dram"])
        self.traffic.load_state_dict(state["traffic"])
        self._reset_pending()
        self.energy = EnergyTally(**state["energy"])
        self.policy.load_state_dict(state["policy"])
        self.census.load_state_dict(state["census"])
        rrts = self.isa.rrts if self.isa is not None else self.rrts
        self._require_matching("rrts", rrts is not None,
                               state["rrts"] is not None)
        if rrts is not None:
            if len(rrts) != len(state["rrts"]):
                raise ValueError("snapshot rrts count mismatch")
            for rrt, s in zip(rrts, state["rrts"]):
                rrt.load_state_dict(s)
        self._require_matching("isa", self.isa is not None,
                               state["isa"] is not None)
        if self.isa is not None:
            self.isa.load_state_dict(state["isa"])
        self.mesh.load_state_dict(state["mesh"])
        self._dead_banks = {int(b) for b in state["dead_banks"]}
        self._alive_banks = [
            b for b in range(self.cfg.num_banks) if b not in self._dead_banks
        ]
        self._require_matching("fault injector", self.fault_injector is not None,
                               state["fault_injector"] is not None)
        if self.fault_injector is not None:
            self.fault_injector.load_state_dict(state["fault_injector"])
        self._require_matching("invariant checker",
                               self.invariant_checker is not None,
                               state["invariant_checker"] is not None)
        if self.invariant_checker is not None:
            self.invariant_checker.load_state_dict(state["invariant_checker"])
        # Tracing configuration may legitimately differ between the
        # snapshotting run and the resuming one: observer state is
        # restored when both sides trace, dropped otherwise (it never
        # feeds MachineStats, so byte-identity is unaffected).
        if self.obs is not None and state["obs"] is not None:
            self.obs.load_state_dict(state["obs"])


def _finalize_machine(machine: Machine, cfg: SystemConfig, seed: int) -> Machine:
    """Attach the configured fault schedule (if any) to a fresh machine."""
    if cfg.fault_spec:
        machine.attach_faults(parse_fault_spec(cfg.fault_spec), seed)
    return machine


def build_machine(
    cfg: SystemConfig,
    policy: str = "snuca",
    *,
    rrt_lookup_cycles: int | None = None,
    fragmentation: float = 0.03,
    seed: int = 0,
) -> Machine:
    """Construct a machine running one of :data:`POLICIES`.

    ``tdnuca-bypass-only`` and ``tdnuca-noisa`` build the same hardware as
    ``tdnuca``; the behavioural difference lives in the runtime extension
    (see :func:`repro.experiments.runner.build_runtime`).
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    cfg.validate()
    amap = AddressMap(cfg.block_bytes, cfg.page_bytes, cfg.physical_address_bits)
    mesh = Mesh(cfg.mesh_width, cfg.mesh_height, cfg.cluster_width, cfg.cluster_height)
    if policy == "snuca":
        machine = Machine(
            cfg, SNuca(cfg.num_banks), fragmentation=fragmentation, seed=seed
        )
        return _finalize_machine(machine, cfg, seed)
    if policy == "rnuca":
        machine = Machine(
            cfg, RNuca(mesh, amap), fragmentation=fragmentation, seed=seed
        )
        return _finalize_machine(machine, cfg, seed)
    if policy == "dnuca":
        machine = Machine(
            cfg, DNuca(mesh), fragmentation=fragmentation, seed=seed
        )
        return _finalize_machine(machine, cfg, seed)
    if policy == "tdnuca-noisa":
        # Section V-E runtime-overhead experiment: the runtime extension
        # runs all its bookkeeping but never executes the ISA instructions,
        # so the hardware is plain S-NUCA (no RRT latency on misses).  The
        # RRT/ISA objects exist only so the extension has something to
        # sample; they stay empty.
        machine = Machine(
            cfg, SNuca(cfg.num_banks), fragmentation=fragmentation, seed=seed
        )
        rrts = [RRT(c, cfg.rrt_entries) for c in range(cfg.num_cores)]
        machine.isa = TdNucaISA(machine.amap, machine.tlbs, rrts, cfg.latency)
        machine.isa.flush_executor = machine._execute_flush
        return _finalize_machine(machine, cfg, seed)
    # TD-NUCA variants share the RRT/ISA hardware.
    rrts = [RRT(c, cfg.rrt_entries) for c in range(cfg.num_cores)]
    lookup = (
        cfg.latency.rrt_lookup if rrt_lookup_cycles is None else rrt_lookup_cycles
    )
    td_policy = TdNucaPolicy(mesh, amap, rrts, lookup)
    machine = Machine(
        cfg, td_policy, fragmentation=fragmentation, seed=seed, rrts=rrts
    )
    isa = TdNucaISA(machine.amap, machine.tlbs, rrts, cfg.latency)
    machine.isa = isa
    isa.flush_executor = machine._execute_flush
    return _finalize_machine(machine, cfg, seed)
