"""The reference simulation kernel: the flat per-reference interpreter.

This is the PR-3 hot loop extracted verbatim from ``Machine._run_blocks``
(``self`` became the ``m`` machine parameter; nothing else changed).  It
is the semantic ground truth every other kernel is measured against, so
treat edits here as protocol changes: the 22 golden snapshots must be
regenerated and the vector kernel updated in lockstep.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.core.rrt import decode_bank_mask
from repro.core.tdnuca import TdNucaPolicy
from repro.noc.traffic import CONTROL_BYTES
from repro.nuca.base import BYPASS
from repro.sim.kernels import SimKernel

__all__ = ["ReferenceKernel"]

# Dense MessageClass indices (mirrors repro.sim.machine's module-level
# aliases; imported lazily there to avoid a cycle at package init).
from repro.noc.traffic import MessageClass as _MC

_REQUEST = int(_MC.REQUEST)
_DATA = int(_MC.DATA)
_WRITEBACK = int(_MC.WRITEBACK)
_DRAM_REQUEST = int(_MC.DRAM_REQUEST)
_DRAM_DATA = int(_MC.DRAM_DATA)


class ReferenceKernel(SimKernel):
    """Single-reference interpreter; always available, always exact."""

    name = "reference"

    def run_blocks(self, m, core, pblocks, writes, compute_per_access=None):
        self.stats.tasks_total += 1
        self.stats.tasks_reference += 1
        return run_blocks_interpreted(m, core, pblocks, writes, compute_per_access)


def run_blocks_interpreted(m, core, pblocks, writes, compute_per_access=None):
    """The flat loop itself, callable without a kernel object so the
    vector backend can delegate per-task fallbacks to it."""
    # Local aliases: this loop runs per memory reference.  Latency,
    # traffic and energy deltas that are fixed per event kind are
    # accumulated in local integers and applied once after the loop;
    # only data-dependent quantities (DRAM row-buffer cycles, hop
    # counts) are touched per reference.
    lat = m.latency
    l1 = m.l1s[core]
    l1_sets = l1._map
    l1_ways = l1._ways
    l1_assoc = l1.assoc
    l1_mask = l1._set_mask
    l1_dirty = l1._dirty
    l1_repl = l1._repl
    l1_plru = l1._plru_fast
    llc_banks = m.llc.banks
    llc_dead = m.llc._dead
    llc_mask = llc_banks[0]._set_mask
    llc_plru = llc_banks[0]._plru_fast
    dist_rows = m.mesh.dist_rows
    dist_core = dist_rows[core]
    policy = m.policy
    bank_for = policy.bank_for
    directory = m.directory
    on_l1_fill = directory.on_l1_fill
    d_sharers = directory._sharers
    d_owner = directory._owner
    d_stats = directory.stats
    bit_core = 1 << core
    dram = m.dram
    dram_read = dram.read
    dram_write = dram.write
    # Fault-free DRAM is the common case: inline the row-buffer model
    # and batch its stats.  With transient errors installed, fall back
    # to the method calls (they own the retry/backoff machinery).
    dram_fast = dram._error_p == 0.0
    dram_open = dram._open_row
    dram_tiles = dram.tiles
    dram_n_mc = len(dram_tiles)
    dram_row_blocks = dram.latency.dram_row_blocks
    dram_row_hit_cyc = dram.latency.dram_row_hit
    dram_miss_cyc = dram.latency.dram
    energy = m.energy
    rrt_cycles = policy.lookup_cycles
    is_td = m.rrts is not None
    dnuca = m._dnuca
    compute = lat.compute if compute_per_access is None else compute_per_access
    bypass = BYPASS
    cycles = 0

    # TD-NUCA bank resolution, specialised: within one task trace the
    # requesting core's RRT table is immutable (ISA instructions only
    # run at task boundaries), so the fused lookup in
    # :meth:`TdNucaPolicy.bank_for` can be hoisted here and its stats
    # batched.  Fault-degraded runs (dead banks) keep the method call.
    td_fast = type(policy) is TdNucaPolicy and not policy._dead_banks
    td_starts = None
    if td_fast:
        td_rrt = policy.rrts[core]
        td_table = td_rrt._tables.get(td_rrt._active_pid)
        if td_table is not None and td_table.starts:
            td_starts = td_table.starts
            td_ends = td_table.ends
            td_masks = td_table.masks
        td_shift = policy._block_shift
        td_bank_mask = policy._bank_mask

    # Batched counters (flushed after the loop).
    l1_hits = 0
    l1_write_hits = 0
    n_l1_miss = 0
    llc_hits = 0
    llc_misses = 0
    llc_req_units = 0  # sum of (hops + 1) over core <-> bank round trips
    dram_pairs = 0     # DRAM request/data message pairs
    dram_units = 0     # sum of (hops + 1) over those pairs
    n_wb = 0           # dirty L1 victims written back (policy-resolved)
    wb_llc = 0         # ... of which landed in an LLC bank
    wb_units = 0       # sum of (hops + 1) over WRITEBACK messages
    wb_dram = 0        # ... of which went straight to DRAM (bypass)
    l1_new = 0         # L1 fills into empty ways (occupancy delta)
    l1_evs = 0         # L1 evictions
    l1_dirty_evs = 0   # ... of which were dirty
    n_rrt_hits = 0     # td_fast: RRT lookup hits
    n_bypass = 0       # td_fast: LLC bypasses
    n_local = 0        # td_fast: local-bank resolutions
    d_reads = 0        # dram_fast: demand reads
    d_writes = 0       # dram_fast: bypassed writebacks
    d_row_hits = 0     # dram_fast: row-buffer hits
    d_row_misses = 0   # dram_fast: row-buffer misses

    for block, write in zip(pblocks, writes):
        # Inlined L1 probe (the allocation-free hit fast path).
        s = block & l1_mask
        way = l1_sets[s].get(block)
        if way is not None:
            l1_hits += 1
            repl = l1_repl[s]
            if l1_plru:
                repl._bits = (repl._bits | repl._or[way]) & repl._and[way]
            else:
                repl.touch(way)
            if write:
                l1_write_hits += 1
                l1_dirty[s][way] = True
                m._write_hit_coherence(core, block)
            continue

        # L1 miss: fill (the miss count is batched below), then RRT
        # lookup (TD-NUCA) / NUCA search (D-NUCA), then bank resolution.
        # The fill is CacheBank._insert inlined with batched counters.
        n_l1_miss += 1
        smap = l1_sets[s]
        sways = l1_ways[s]
        repl = l1_repl[s]
        if len(smap) < l1_assoc:
            way = sways.index(None)
            l1_new += 1
            ev_l1 = -1
            ev_l1_dirty = False
        else:
            way = repl._victim[repl._bits] if l1_plru else repl.victim()
            ev_l1 = sways[way]
            ev_l1_dirty = l1_dirty[s][way]
            del smap[ev_l1]
            l1_evs += 1
            if ev_l1_dirty:
                l1_dirty_evs += 1
        sways[way] = block
        smap[block] = way
        l1_dirty[s][way] = write
        if l1_plru:
            repl._bits = (repl._bits | repl._or[way]) & repl._and[way]
        else:
            repl.touch(way)

        if td_fast:
            # TdNucaPolicy.bank_for, inlined over the hoisted table.
            mask_bits = None
            if td_starts is not None:
                paddr = block << td_shift
                i = bisect_right(td_starts, paddr) - 1
                if i >= 0 and paddr < td_ends[i]:
                    n_rrt_hits += 1
                    mask_bits = td_masks[i]
            if mask_bits is None:
                bank = block & td_bank_mask
                if bank == core:
                    n_local += 1
            elif mask_bits == 0:
                n_bypass += 1
                bank = bypass
            else:
                dbanks = decode_bank_mask(mask_bits)
                nb = len(dbanks)
                bank = dbanks[0] if nb == 1 else dbanks[block % nb]
                if bank == core:
                    n_local += 1
        else:
            bank = bank_for(core, block, write)

        # Coherence: fetch may invalidate/downgrade remote L1 copies.
        # The directory's common cases (untracked block, or this core
        # already the only party) are inlined; contended blocks fall
        # back to the full protocol method.
        mask = d_sharers.get(block, 0)
        if write:
            if mask & ~bit_core:
                actions = on_l1_fill(core, block, True)
                cycles += m._coherence_actions(core, block, bank, actions)
            else:
                d_sharers[block] = bit_core
                d_owner[block] = core
        else:
            owner = d_owner.get(block)
            if owner is not None and owner != core:
                actions = on_l1_fill(core, block, False)
                cycles += m._coherence_actions(core, block, bank, actions)
            else:
                d_sharers[block] = mask | bit_core
        entries = len(d_sharers)
        if entries > d_stats.entries_peak:
            d_stats.entries_peak = entries

        if bank == bypass:
            dram_pairs += 1
            if dram_fast:
                mcix = block % dram_n_mc
                row = block // dram_row_blocks
                if dram_open.get(mcix) == row:
                    d_row_hits += 1
                    cycles += dram_row_hit_cyc
                else:
                    d_row_misses += 1
                    dram_open[mcix] = row
                    cycles += dram_miss_cyc
                d_reads += 1
                mc = dram_tiles[mcix]
            else:
                mc, dram_cycles = dram_read(block)
                cycles += dram_cycles
            dram_units += dist_core[mc] + 1
        else:
            llc_req_units += dist_core[bank] + 1
            if llc_dead and bank in llc_dead:
                raise RuntimeError(
                    f"access routed to dead LLC bank {bank}; "
                    "policy remap failed"
                )
            bank_obj = llc_banks[bank]
            bs = block & llc_mask
            bway = bank_obj._map[bs].get(block)
            if bway is not None:
                # Inlined LLC read-probe hit.
                llc_hits += 1
                bst = bank_obj.stats
                bst.hits += 1
                bst.read_hits += 1
                repl = bank_obj._repl[bs]
                if llc_plru:
                    repl._bits = (
                        repl._bits | repl._or[bway]
                    ) & repl._and[bway]
                else:
                    repl.touch(bway)
            else:
                llc_misses += 1
                bank_obj.stats.misses += 1
                dram_pairs += 1
                if dram_fast:
                    mcix = block % dram_n_mc
                    row = block // dram_row_blocks
                    if dram_open.get(mcix) == row:
                        d_row_hits += 1
                        cycles += dram_row_hit_cyc
                    else:
                        d_row_misses += 1
                        dram_open[mcix] = row
                        cycles += dram_miss_cyc
                    d_reads += 1
                    mc = dram_tiles[mcix]
                else:
                    mc, dram_cycles = dram_read(block)
                    cycles += dram_cycles
                dram_units += dist_rows[bank][mc] + 1
                evicted, evicted_dirty = bank_obj._insert(block, False)
                if evicted >= 0:
                    m._llc_eviction(bank, evicted, evicted_dirty)
            if dnuca is not None:
                migration = dnuca.post_access(core, block, bank)
                if migration is not None:
                    m._migrate_block(migration)

        # L1 fill displaced a victim; dirty victims write back through
        # the policy-resolved bank (the RRT is consulted for
        # writebacks too — Section III-B3).
        if ev_l1_dirty:
            n_wb += 1
            if td_fast:
                mask_bits = None
                if td_starts is not None:
                    paddr = ev_l1 << td_shift
                    i = bisect_right(td_starts, paddr) - 1
                    if i >= 0 and paddr < td_ends[i]:
                        n_rrt_hits += 1
                        mask_bits = td_masks[i]
                if mask_bits is None:
                    wb_bank = ev_l1 & td_bank_mask
                    if wb_bank == core:
                        n_local += 1
                elif mask_bits == 0:
                    n_bypass += 1
                    wb_bank = bypass
                else:
                    dbanks = decode_bank_mask(mask_bits)
                    nb = len(dbanks)
                    wb_bank = dbanks[0] if nb == 1 else dbanks[ev_l1 % nb]
                    if wb_bank == core:
                        n_local += 1
            else:
                wb_bank = bank_for(core, ev_l1, True)
            # Inlined directory.on_l1_evict (dirty eviction).
            mask = d_sharers.get(ev_l1, 0) & ~bit_core
            if mask:
                d_sharers[ev_l1] = mask
            else:
                d_sharers.pop(ev_l1, None)
            if d_owner.get(ev_l1) == core:
                del d_owner[ev_l1]
            if wb_bank == bypass:
                wb_dram += 1
                if dram_fast:
                    mcix = ev_l1 % dram_n_mc
                    row = ev_l1 // dram_row_blocks
                    if dram_open.get(mcix) == row:
                        d_row_hits += 1
                    else:
                        d_row_misses += 1
                        dram_open[mcix] = row
                    d_writes += 1
                    mc = dram_tiles[mcix]
                else:
                    mc, _wb_cycles = dram_write(ev_l1)
                wb_units += dist_core[mc] + 1
            else:
                wb_units += dist_core[wb_bank] + 1
                if llc_dead and wb_bank in llc_dead:
                    raise RuntimeError(
                        f"access routed to dead LLC bank {wb_bank}; "
                        "policy remap failed"
                    )
                wb_obj = llc_banks[wb_bank]
                wb_llc += 1
                if not wb_obj.probe(ev_l1, True):
                    wb_obj.stats.misses += 1
                    ev2, ev2_dirty = wb_obj._insert(ev_l1, True)
                    if ev2 >= 0:
                        m._llc_eviction(wb_bank, ev2, ev2_dirty)

    # --- apply the batched deltas ---
    n = len(pblocks)
    llc_req = llc_hits + llc_misses

    # Latency: every access pays compute + the L1 probe; LLC legs pay
    # the round trip (2 * hops * per_hop, summed via the router units)
    # plus the hit or tag-probe service time; DRAM legs likewise.
    cycles += (compute + lat.l1_hit) * n
    if is_td or dnuca is not None:
        cycles += rrt_cycles * n_l1_miss
    cycles += lat.llc_hit * llc_hits + lat.llc_miss_probe * llc_misses
    cycles += 2 * lat.per_hop * (
        llc_req_units - llc_req + dram_units - dram_pairs
    )

    # L1 demand stats (inserts above skipped the per-call counting).
    st = l1.stats
    st.hits += l1_hits
    st.read_hits += l1_hits - l1_write_hits
    st.write_hits += l1_write_hits
    st.misses += n_l1_miss
    st.evictions += l1_evs
    st.dirty_evictions += l1_dirty_evs
    l1._occupancy += l1_new

    # Specialised-path stat batches (exact counter-for-counter match
    # with the bank_for / MemoryControllers method bodies).
    if td_fast:
        n_res = n_l1_miss + n_wb
        rst = td_rrt.stats
        rst.lookups += n_res
        rst.hits += n_rrt_hits
        pst = policy.stats
        pst.resolutions += n_res
        pst.bypasses += n_bypass
        pst.local_bank_hits += n_local
    if dram_fast:
        dst = dram.stats
        dst.reads += d_reads
        dst.writes += d_writes
        dst.row_hits += d_row_hits
        dst.row_misses += d_row_misses

    # Energy events.
    energy.l1_accesses += n
    if is_td:
        energy.rrt_lookups += n_l1_miss + n_wb
    energy.llc_tag_probes += llc_req + wb_llc
    energy.llc_data_reads += llc_hits
    energy.llc_data_writes += llc_misses + wb_llc
    energy.dram_accesses += dram_pairs + wb_dram

    # Traffic: each LLC access is a REQUEST/DATA pair and each DRAM
    # access a DRAM_REQUEST/DRAM_DATA pair, both legs sharing one hop
    # count — so router-bytes and flit-hops factor over the summed
    # (hops + 1) router units.  L1 victim writebacks add one
    # WRITEBACK data message each.
    data_bytes = m._data_bytes
    total_units = llc_req_units + dram_units
    m._acc_router_bytes += (
        (CONTROL_BYTES + data_bytes) * total_units + data_bytes * wb_units
    )
    m._acc_flit_hops += (
        (m._ctrl_flits + m._data_flits) * total_units
        + m._data_flits * wb_units
    )
    m._acc_messages += 2 * (llc_req + dram_pairs) + n_wb
    acc_cb = m._acc_class_bytes
    acc_cb[_REQUEST] += CONTROL_BYTES * llc_req
    acc_cb[_DATA] += data_bytes * llc_req
    acc_cb[_WRITEBACK] += data_bytes * n_wb
    acc_cb[_DRAM_REQUEST] += CONTROL_BYTES * dram_pairs
    acc_cb[_DRAM_DATA] += data_bytes * dram_pairs
    m._acc_nuca_sum += llc_req_units - llc_req
    m._acc_nuca_count += llc_req
    m._flush_traffic()

    return cycles
