"""The vector simulation kernel: a specialized per-task interpreter.

Profiling at experiment scales shows the tiny scaled L1 misses ~90-97%
of references, so the *miss* path is what must get cheaper.  The kernel
runs every eligible task through one fused engine: a single-pass
interpreter with the reference loop's exact event order, specialized for
the preconditions the dispatch gate already guarantees (Tree-PLRU,
fault-free DRAM, no dead banks, no D-NUCA, TD-NUCA/S-NUCA policy).  It
drops the reference loop's per-event capability branches, inlines every
remaining per-event method call (S-NUCA resolution, write-hit upgrades,
LLC probe/insert, the whole eviction cascade), memoizes the last-hit RRT
range so repeated lookups in a task's dependency regions skip the
bisect, and derives several counters at commit time instead of per
event.  Because it processes events in true time order, an own-core
back-invalidation needs no special handling.

Per-task dispatch falls back to the reference loop whenever the machine
is in a state this kernel does not model: D-NUCA, DRAM transient errors,
dead banks, non-PLRU replacement, or a policy other than TD-NUCA/S-NUCA.
An attached observer is no such state: no observer hook runs inside
either kernel (they fire at task boundaries, flushes, remaps and stats
resets; the only per-reference one, the DRAM retry, comes with the
transient errors the gate already sends to the reference loop).
"""

from __future__ import annotations

from bisect import bisect_right

from repro.core.rrt import decode_bank_mask
from repro.core.tdnuca import TdNucaPolicy
from repro.noc.traffic import CONTROL_BYTES, MessageClass
from repro.nuca.base import BYPASS
from repro.nuca.snuca import SNuca
from repro.sim.kernels import SimKernel
from repro.sim.kernels.reference import run_blocks_interpreted

__all__ = ["VectorKernel"]

_REQUEST = int(MessageClass.REQUEST)
_DATA = int(MessageClass.DATA)
_WRITEBACK = int(MessageClass.WRITEBACK)
_INVALIDATION = int(MessageClass.INVALIDATION)
_ACK = int(MessageClass.ACK)
_DRAM_REQUEST = int(MessageClass.DRAM_REQUEST)
_DRAM_DATA = int(MessageClass.DRAM_DATA)


class VectorKernel(SimKernel):
    """Fused-engine backend; dispatches per task, reference on slow paths."""

    name = "vector"

    def run_blocks(self, m, core, pblocks, writes, compute_per_access=None):
        self.stats.tasks_total += 1
        reason = _fallback_reason(m, core)
        if reason is not None:
            self.stats.tasks_reference += 1
            self.stats.count_fallback(reason)
            return run_blocks_interpreted(
                m, core, pblocks, writes, compute_per_access
            )
        cycles = _run_fused(m, core, pblocks, writes, compute_per_access)
        self.stats.tasks_vector += 1
        return cycles


def _fallback_reason(m, core):
    """Why this task cannot take the vector path (None = it can)."""
    if m._dnuca is not None:
        return "dnuca"
    if m.dram._error_p != 0.0:
        return "dram-transients"
    if m.llc._dead or m._dead_banks:
        return "dead-banks"
    if not m.l1s[core]._plru_fast or not m.llc.banks[0]._plru_fast:
        return "replacement"
    policy = m.policy
    if type(policy) is TdNucaPolicy or type(policy) is SNuca:
        if policy._dead_banks:
            return "dead-banks"
        return None
    return "policy"


def _run_fused(m, core, pblocks, writes, compute_per_access):
    """Single-pass specialized interpreter for one task's trace.

    Same event order as the reference loop, but specialized for the
    fast-path preconditions the dispatch gate already guarantees (PLRU
    replacement, fault-free DRAM, no dead banks, no D-NUCA, TD-NUCA or
    S-NUCA policy), which lets it drop the reference loop's per-event
    capability branches, inline its remaining per-event method calls
    (S-NUCA bank resolution, write-hit upgrades, LLC insert/probe, the
    whole eviction cascade) and derive more counters at commit time.
    It runs traces of every length: per-miss work is dict-bound state
    machines that array batching cannot amortize, even on full-scale
    tasks of 10^5 references (DESIGN.md §13).
    """
    lat = m.latency
    l1 = m.l1s[core]
    l1_sets = l1._map
    l1_ways = l1._ways
    l1_assoc = l1.assoc
    l1_mask = l1._set_mask
    l1_dirty = l1._dirty
    l1_repl = l1._repl
    llc_banks = m.llc.banks
    llc_where = m.llc._where
    llc_mask = llc_banks[0]._set_mask
    llc_assoc = llc_banks[0].assoc
    dist_rows = m.mesh.dist_rows
    dist_core = dist_rows[core]
    policy = m.policy
    directory = m.directory
    on_l1_fill = directory.on_l1_fill
    d_sharers = directory._sharers
    d_owner = directory._owner
    d_stats = directory.stats
    d_peak = d_stats.entries_peak
    bit_core = 1 << core
    not_bit_core = ~bit_core
    whc = m._write_hit_coherence
    coherence_actions = m._coherence_actions
    dram = m.dram
    dst = dram.stats
    dram_open = dram._open_row
    dram_tiles = dram.tiles
    dram_n_mc = len(dram_tiles)
    dram_row_blocks = dram.latency.dram_row_blocks
    dram_row_hit_cyc = dram.latency.dram_row_hit
    dram_miss_cyc = dram.latency.dram
    energy = m.energy
    compute = lat.compute if compute_per_access is None else compute_per_access
    bypass = BYPASS
    cycles = 0
    data_bytes = m._data_bytes
    data_flits = m._data_flits
    ctrl_flits = m._ctrl_flits
    acc_cb = m._acc_class_bytes

    td_fast = type(policy) is TdNucaPolicy
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
        sn_mask = 0
    else:
        sn_mask = policy._mask
    # Last-hit RRT entry memo: the table is immutable within a task and
    # accesses cluster in the task's dependency ranges, so most lookups
    # land in the entry the previous one did — skip the bisect then.
    # (Ranges are sorted and disjoint, so a memo hit and the bisect
    # always agree.)
    memo_lo = 0
    memo_hi = 0
    memo_mask = 0

    # Batched counters; several of the reference loop's are derived at
    # commit instead: l1_new = misses - evictions, dirty evictions =
    # writebacks, DRAM reads = demand pairs, DRAM writes = bypassed
    # writebacks, row misses = accesses - row hits.
    l1_hits = 0
    l1_write_hits = 0
    n_l1_miss = 0
    llc_hits = 0
    llc_misses = 0
    llc_req_units = 0
    dram_pairs = 0
    dram_units = 0
    n_wb = 0
    wb_llc = 0
    wb_units = 0
    wb_dram = 0
    n_rrt_hits = 0
    n_bypass = 0
    n_local = 0
    l1_evs = 0
    d_row_hits = 0

    l1s = m.l1s

    def evict(bank_, victim, dirty):
        """Inlined ``Machine._llc_eviction`` (fault-free, no D-NUCA)."""
        dist_bank = dist_rows[bank_]
        if dirty:
            energy.llc_data_reads += 1
            dst.writes += 1
            mcix = victim % dram_n_mc
            row = victim // dram_row_blocks
            if dram_open.get(mcix) == row:
                dst.row_hits += 1
            else:
                dst.row_misses += 1
                dram_open[mcix] = row
            routers = dist_bank[dram_tiles[mcix]] + 1
            m._acc_router_bytes += data_bytes * routers
            m._acc_flit_hops += data_flits * routers
            m._acc_messages += 1
            acc_cb[_WRITEBACK] += data_bytes
            energy.dram_accesses += 1
        if victim in llc_where:
            return
        if victim in d_owner:
            del d_owner[victim]
        if victim not in d_sharers:
            return
        sharers = d_sharers[victim]
        del d_sharers[victim]
        while sharers:
            low = sharers & -sharers
            sharers ^= low
            core_ = low.bit_length() - 1
            d_stats.invalidations_sent += 1
            routers = dist_bank[core_] + 1
            m._acc_router_bytes += 2 * CONTROL_BYTES * routers
            m._acc_flit_hops += 2 * ctrl_flits * routers
            m._acc_messages += 2
            acc_cb[_INVALIDATION] += CONTROL_BYTES
            acc_cb[_ACK] += CONTROL_BYTES
            vl1 = l1s[core_]
            vs = victim & vl1._set_mask
            vmap = vl1._map[vs]
            if victim not in vmap:
                continue
            vway = vmap[victim]
            del vmap[victim]
            vl1._ways[vs][vway] = None
            vrow = vl1._dirty[vs]
            was_dirty = vrow[vway]
            vrow[vway] = False
            vl1._occupancy -= 1
            vl1.stats.invalidations += 1
            if was_dirty:
                dst.writes += 1
                mcix = victim % dram_n_mc
                row = victim // dram_row_blocks
                if dram_open.get(mcix) == row:
                    dst.row_hits += 1
                else:
                    dst.row_misses += 1
                    dram_open[mcix] = row
                routers = dist_rows[core_][dram_tiles[mcix]] + 1
                m._acc_router_bytes += data_bytes * routers
                m._acc_flit_hops += data_flits * routers
                m._acc_messages += 1
                acc_cb[_WRITEBACK] += data_bytes
                energy.dram_accesses += 1

    for block, write in zip(pblocks, writes):
        s = block & l1_mask
        smap = l1_sets[s]
        way = smap.get(block)
        if way is not None:
            l1_hits += 1
            repl = l1_repl[s]
            repl._bits = (repl._bits | repl._or[way]) & repl._and[way]
            if write:
                l1_write_hits += 1
                l1_dirty[s][way] = True
                # Inlined _write_hit_coherence fast path: sole owner or
                # silent upgrade; contended blocks take the full method.
                if d_sharers.get(block, 0) & not_bit_core:
                    whc(core, block)
                elif d_owner.get(block) != core:
                    on_l1_fill(core, block, True)
            continue

        n_l1_miss += 1
        sways = l1_ways[s]
        repl = l1_repl[s]
        if len(smap) < l1_assoc:
            way = sways.index(None)
            ev_l1 = -1
            ev_l1_dirty = False
        else:
            way = repl._victim[repl._bits]
            ev_l1 = sways[way]
            ev_l1_dirty = l1_dirty[s][way]
            del smap[ev_l1]
            l1_evs += 1
        sways[way] = block
        smap[block] = way
        l1_dirty[s][way] = write
        repl._bits = (repl._bits | repl._or[way]) & repl._and[way]

        if td_fast:
            mask_bits = None
            if td_starts is not None:
                paddr = block << td_shift
                if memo_lo <= paddr < memo_hi:
                    n_rrt_hits += 1
                    mask_bits = memo_mask
                else:
                    ti = bisect_right(td_starts, paddr) - 1
                    if ti >= 0 and paddr < td_ends[ti]:
                        n_rrt_hits += 1
                        memo_lo = td_starts[ti]
                        memo_hi = td_ends[ti]
                        memo_mask = mask_bits = td_masks[ti]
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
            bank = block & sn_mask
            if bank == core:
                n_local += 1

        mask = d_sharers.get(block, 0)
        if write:
            if mask & not_bit_core:
                cycles += coherence_actions(
                    core, block, bank, on_l1_fill(core, block, True)
                )
            else:
                d_sharers[block] = bit_core
                d_owner[block] = core
        else:
            owner = d_owner.get(block)
            if owner is not None and owner != core:
                cycles += coherence_actions(
                    core, block, bank, on_l1_fill(core, block, False)
                )
            else:
                d_sharers[block] = mask | bit_core
        entries = len(d_sharers)
        if entries > d_peak:
            d_peak = entries

        if bank == bypass:
            dram_pairs += 1
            mcix = block % dram_n_mc
            row = block // dram_row_blocks
            if dram_open.get(mcix) == row:
                d_row_hits += 1
                cycles += dram_row_hit_cyc
            else:
                dram_open[mcix] = row
                cycles += dram_miss_cyc
            dram_units += dist_core[dram_tiles[mcix]] + 1
        else:
            llc_req_units += dist_core[bank] + 1
            bank_obj = llc_banks[bank]
            bs = block & llc_mask
            bmap = bank_obj._map[bs]
            bway = bmap.get(block)
            if bway is not None:
                llc_hits += 1
                bst = bank_obj.stats
                bst.hits += 1
                bst.read_hits += 1
                repl = bank_obj._repl[bs]
                repl._bits = (repl._bits | repl._or[bway]) & repl._and[bway]
            else:
                llc_misses += 1
                bank_obj.stats.misses += 1
                dram_pairs += 1
                mcix = block % dram_n_mc
                row = block // dram_row_blocks
                if dram_open.get(mcix) == row:
                    d_row_hits += 1
                    cycles += dram_row_hit_cyc
                else:
                    dram_open[mcix] = row
                    cycles += dram_miss_cyc
                dram_units += dist_rows[bank][dram_tiles[mcix]] + 1
                # Inlined CacheBank._insert(block, False), residency
                # mask included.
                bit = bank_obj._bit
                if block in llc_where:
                    llc_where[block] |= bit
                else:
                    llc_where[block] = bit
                bways = bank_obj._ways[bs]
                repl = bank_obj._repl[bs]
                if len(bmap) < llc_assoc:
                    bway = bways.index(None)
                    bank_obj._occupancy += 1
                    bways[bway] = block
                    bmap[block] = bway
                    bank_obj._dirty[bs][bway] = False
                    repl._bits = (
                        repl._bits | repl._or[bway]
                    ) & repl._and[bway]
                else:
                    bway = repl._victim[repl._bits]
                    evicted = bways[bway]
                    evicted_dirty = bank_obj._dirty[bs][bway]
                    del bmap[evicted]
                    held = llc_where[evicted] ^ bit
                    if held:
                        llc_where[evicted] = held
                    else:
                        del llc_where[evicted]
                    bst = bank_obj.stats
                    bst.evictions += 1
                    if evicted_dirty:
                        bst.dirty_evictions += 1
                    bways[bway] = block
                    bmap[block] = bway
                    bank_obj._dirty[bs][bway] = False
                    repl._bits = (
                        repl._bits | repl._or[bway]
                    ) & repl._and[bway]
                    evict(bank, evicted, evicted_dirty)

        if ev_l1_dirty:
            n_wb += 1
            if td_fast:
                mask_bits = None
                if td_starts is not None:
                    paddr = ev_l1 << td_shift
                    if memo_lo <= paddr < memo_hi:
                        n_rrt_hits += 1
                        mask_bits = memo_mask
                    else:
                        ti = bisect_right(td_starts, paddr) - 1
                        if ti >= 0 and paddr < td_ends[ti]:
                            n_rrt_hits += 1
                            memo_lo = td_starts[ti]
                            memo_hi = td_ends[ti]
                            memo_mask = mask_bits = td_masks[ti]
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
                wb_bank = ev_l1 & sn_mask
                if wb_bank == core:
                    n_local += 1
            # Inlined directory.on_l1_evict (dirty eviction).
            mask = d_sharers.get(ev_l1, 0) & not_bit_core
            if mask:
                d_sharers[ev_l1] = mask
            else:
                d_sharers.pop(ev_l1, None)
            if d_owner.get(ev_l1) == core:
                del d_owner[ev_l1]
            if wb_bank == bypass:
                wb_dram += 1
                mcix = ev_l1 % dram_n_mc
                row = ev_l1 // dram_row_blocks
                if dram_open.get(mcix) == row:
                    d_row_hits += 1
                else:
                    dram_open[mcix] = row
                wb_units += dist_core[dram_tiles[mcix]] + 1
            else:
                wb_units += dist_core[wb_bank] + 1
                wb_obj = llc_banks[wb_bank]
                wb_llc += 1
                # Inlined CacheBank.probe(ev_l1, True) + _insert(ev_l1, True).
                ws = ev_l1 & llc_mask
                wmap = wb_obj._map[ws]
                wway = wmap.get(ev_l1)
                if wway is not None:
                    wst = wb_obj.stats
                    wst.hits += 1
                    wst.write_hits += 1
                    wb_obj._dirty[ws][wway] = True
                    wrepl = wb_obj._repl[ws]
                    wrepl._bits = (
                        wrepl._bits | wrepl._or[wway]
                    ) & wrepl._and[wway]
                else:
                    wb_obj.stats.misses += 1
                    bit = wb_obj._bit
                    if ev_l1 in llc_where:
                        llc_where[ev_l1] |= bit
                    else:
                        llc_where[ev_l1] = bit
                    wways = wb_obj._ways[ws]
                    wrepl = wb_obj._repl[ws]
                    if len(wmap) < llc_assoc:
                        wway = wways.index(None)
                        wb_obj._occupancy += 1
                        wways[wway] = ev_l1
                        wmap[ev_l1] = wway
                        wb_obj._dirty[ws][wway] = True
                        wrepl._bits = (
                            wrepl._bits | wrepl._or[wway]
                        ) & wrepl._and[wway]
                    else:
                        wway = wrepl._victim[wrepl._bits]
                        ev2 = wways[wway]
                        ev2_dirty = wb_obj._dirty[ws][wway]
                        del wmap[ev2]
                        held = llc_where[ev2] ^ bit
                        if held:
                            llc_where[ev2] = held
                        else:
                            del llc_where[ev2]
                        wst = wb_obj.stats
                        wst.evictions += 1
                        if ev2_dirty:
                            wst.dirty_evictions += 1
                        wways[wway] = ev_l1
                        wmap[ev_l1] = wway
                        wb_obj._dirty[ws][wway] = True
                        wrepl._bits = (
                            wrepl._bits | wrepl._or[wway]
                        ) & wrepl._and[wway]
                        evict(wb_bank, ev2, ev2_dirty)

    # --- apply the batched deltas (mirror of the reference commit) ---
    n = len(pblocks)
    llc_req = llc_hits + llc_misses
    d_stats.entries_peak = d_peak

    cycles += (compute + lat.l1_hit) * n
    is_td = m.rrts is not None
    if is_td:
        cycles += policy.lookup_cycles * n_l1_miss
    cycles += lat.llc_hit * llc_hits + lat.llc_miss_probe * llc_misses
    cycles += 2 * lat.per_hop * (
        llc_req_units - llc_req + dram_units - dram_pairs
    )

    st = l1.stats
    st.hits += l1_hits
    st.read_hits += l1_hits - l1_write_hits
    st.write_hits += l1_write_hits
    st.misses += n_l1_miss
    st.evictions += l1_evs
    st.dirty_evictions += n_wb
    l1._occupancy += n_l1_miss - l1_evs

    n_res = n_l1_miss + n_wb
    pst = policy.stats
    pst.resolutions += n_res
    pst.local_bank_hits += n_local
    if td_fast:
        rst = td_rrt.stats
        rst.lookups += n_res
        rst.hits += n_rrt_hits
        pst.bypasses += n_bypass

    dst.reads += dram_pairs
    dst.writes += wb_dram
    dst.row_hits += d_row_hits
    dst.row_misses += dram_pairs + wb_dram - d_row_hits

    energy.l1_accesses += n
    if is_td:
        energy.rrt_lookups += n_res
    energy.llc_tag_probes += llc_req + wb_llc
    energy.llc_data_reads += llc_hits
    energy.llc_data_writes += llc_misses + wb_llc
    energy.dram_accesses += dram_pairs + wb_dram

    total_units = llc_req_units + dram_units
    m._acc_router_bytes += (
        (CONTROL_BYTES + data_bytes) * total_units + data_bytes * wb_units
    )
    m._acc_flit_hops += (
        (ctrl_flits + data_flits) * total_units + data_flits * wb_units
    )
    m._acc_messages += 2 * (llc_req + dram_pairs) + n_wb
    acc_cb[_REQUEST] += CONTROL_BYTES * llc_req
    acc_cb[_DATA] += data_bytes * llc_req
    acc_cb[_WRITEBACK] += data_bytes * n_wb
    acc_cb[_DRAM_REQUEST] += CONTROL_BYTES * dram_pairs
    acc_cb[_DRAM_DATA] += data_bytes * dram_pairs
    m._acc_nuca_sum += llc_req_units - llc_req
    m._acc_nuca_count += llc_req
    m._flush_traffic()

    return cycles
