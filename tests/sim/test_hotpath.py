"""The flattened per-reference hot path: batched counters, allocation-free
probes, trace memoization, and the slow-path equivalences they rely on."""

import pytest

from repro.cache.bank import CacheBank
from repro.cache.replacement import TreePLRUState, _victim_for_bits
from repro.mem.region import Region
from repro.noc.traffic import NUM_MESSAGE_CLASSES, MessageClass, TrafficStats
from repro.runtime.task import AccessChunk, Dependency, Task
from repro.runtime.trace import (
    TraceCache,
    build_trace,
    build_trace_cached,
    trace_signature,
)
from repro.deps import DepMode
from tests.sim.test_machine import make, run_blocks


class TestBatchedTraffic:
    def test_add_batch_matches_record_message(self):
        a = TrafficStats()
        b = TrafficStats()
        a.record_message(MessageClass.REQUEST, 8, 3)
        a.record_message(MessageClass.DATA, 72, 3)
        a.record_message(MessageClass.WRITEBACK, 72, 1)
        a.record_nuca_distance(3)
        cb = [0] * NUM_MESSAGE_CLASSES
        cb[MessageClass.REQUEST] = 8
        cb[MessageClass.DATA] = 72
        cb[MessageClass.WRITEBACK] = 72
        b.add_batch(
            router_bytes=8 * 4 + 72 * 4 + 72 * 2,
            flit_hops=1 * 4 + 5 * 4 + 5 * 2,
            messages=3,
            class_bytes=cb,
            nuca_distance_sum=3,
            nuca_distance_count=1,
        )
        for f in TrafficStats.__slots__:
            assert getattr(a, f) == getattr(b, f), f

    def test_add_batch_validates_once_per_flush(self):
        t = TrafficStats()
        with pytest.raises(ValueError):
            t.add_batch(-1, 0, 0, [0] * NUM_MESSAGE_CLASSES)
        with pytest.raises(ValueError):
            t.add_batch(0, 0, 0, [0] * (NUM_MESSAGE_CLASSES - 1))
        bad = [0] * NUM_MESSAGE_CLASSES
        bad[2] = -5
        with pytest.raises(ValueError):
            t.add_batch(0, 0, 0, bad)
        assert t.messages == 0 and t.router_bytes == 0

    def test_record_message_still_raises(self):
        # The per-call range check moved out of the hot loop, but the
        # public per-message API keeps rejecting bad input.
        t = TrafficStats()
        with pytest.raises(ValueError):
            t.record_message(MessageClass.REQUEST, -8, 0)
        with pytest.raises(ValueError):
            t.record_message(MessageClass.REQUEST, 8, -1)
        with pytest.raises(ValueError):
            t.record_nuca_distance(-2)


class TestResetStats:
    def test_reset_clears_dense_counters_and_pending(self):
        m = make("tdnuca")
        region = Region(0, 4096, "d")
        t = Task(
            "t",
            (Dependency(region, DepMode.INOUT),),
            (AccessChunk(region, True),),
        )
        m.run_task_trace(0, t)
        m.collect_stats()
        assert m.traffic.messages > 0
        assert any(m.traffic.class_bytes)
        # Leave deltas pending (no flush) then reset: both the dense
        # counters and the unflushed accumulators must die.
        m._acc_messages = 7
        m._acc_class_bytes[0] = 99
        m.reset_stats()
        assert m.traffic.messages == 0
        assert m.traffic.class_bytes == [0] * NUM_MESSAGE_CLASSES
        assert m._acc_messages == 0
        assert m._acc_class_bytes == [0] * NUM_MESSAGE_CLASSES
        assert m._acc_router_bytes == 0
        # A fresh run accounts from zero.
        m.run_task_trace(0, t)
        m.collect_stats()
        assert m.traffic.messages > 0


class TestFlushAccounting:
    def _dirty_machine(self):
        m = make("snuca")
        blocks = list(range(64))
        run_blocks(m, 0, blocks, writes=[True] * len(blocks))
        return m, blocks

    def test_flush_l1_bumps_flushed_blocks(self):
        m, blocks = self._dirty_machine()
        before = sum(l1.stats.flushed_blocks for l1 in m.l1s)
        flushed, dirty = m._flush_l1(blocks, range(m.num_cores))
        after = sum(l1.stats.flushed_blocks for l1 in m.l1s)
        assert flushed > 0
        assert after - before == flushed
        assert dirty > 0  # every resident block was written

    def test_flush_llc_bumps_flushed_blocks(self):
        m, blocks = self._dirty_machine()
        before = sum(b.stats.flushed_blocks for b in m.llc.banks)
        flushed, _dirty = m._flush_llc(blocks, range(len(m.llc.banks)))
        after = sum(b.stats.flushed_blocks for b in m.llc.banks)
        assert flushed > 0
        assert after - before == flushed

    def test_flush_blocks_collect_counts_uniformly(self):
        bank = CacheBank(1024, 2, 64)
        bank.fill(0)
        bank.fill(1, dirty=True)
        removed = bank.flush_blocks_collect([0, 1, 2, 3])
        assert sorted(removed) == [(0, False), (1, True)]
        assert bank.stats.flushed_blocks == 2
        assert bank.stats.invalidations == 2
        assert bank.occupancy == 0


class TestNoDemandFill:
    def test_fill_skips_demand_counters(self):
        bank = CacheBank(1024, 2, 64)
        res = bank.fill(5)
        assert not res.hit and res.evicted is None
        assert bank.stats.hits == 0 and bank.stats.misses == 0
        # Refill of a resident block is a silent touch.
        res = bank.fill(5, dirty=True)
        assert res.hit
        assert bank.stats.hits == 0 and bank.stats.misses == 0
        assert bank.is_dirty(5)

    def test_fill_evictions_are_counted(self):
        bank = CacheBank(256, 2, 64)  # 2 sets x 2 ways
        bank.fill(0)
        bank.fill(2, dirty=True)
        res = bank.fill(4)  # same set: displaces one of 0/2
        assert res.evicted in (0, 2)
        assert bank.stats.evictions == 1
        assert bank.stats.misses == 0


class TestPlruVictimTable:
    @pytest.mark.parametrize("assoc", [2, 4, 8, 16])
    def test_table_matches_reference_walk(self, assoc):
        repl = TreePLRUState(assoc)
        assert repl._victim is not None
        for bits in range(1 << (assoc - 1)):
            assert repl._victim[bits] == _victim_for_bits(assoc, bits), bits

    def test_wide_trees_fall_back_to_walk(self):
        repl = TreePLRUState(32)
        assert repl._victim is None
        assert 0 <= repl.victim() < 32

    def test_bank_probe_touch_matches_touch_method(self):
        fast = CacheBank(1024, 4, 64)
        assert fast._plru_fast
        slow = CacheBank(1024, 4, 64)
        slow._plru_fast = False
        for block in (0, 4, 8, 12, 0, 8):
            fast.access(block, False)
            slow.access(block, False)
        assert [r._bits for r in fast._repl] == [r._bits for r in slow._repl]


class TestTraceMemoization:
    def _task(self, start=0):
        region = Region(start, 1024, "d")
        return Task(
            "t",
            (Dependency(region, DepMode.IN),),
            (AccessChunk(region, False, 2),),
        )

    def test_same_signature_shares_trace(self):
        m = make("snuca")
        cache = TraceCache()
        t1, t2 = self._task(), self._task()
        assert trace_signature(t1, m.amap) == trace_signature(t2, m.amap)
        tr1 = build_trace_cached(t1, m.amap, cache)
        tr2 = build_trace_cached(t2, m.amap, cache)
        assert tr1 is tr2
        ref = build_trace(t1, m.amap)
        assert tr1.runs == ref.runs
        assert tr1.segments == ref.segments

    def test_distinct_signatures_get_distinct_traces(self):
        m = make("snuca")
        cache = TraceCache()
        tr1 = build_trace_cached(self._task(0), m.amap, cache)
        tr2 = build_trace_cached(self._task(4096), m.amap, cache)
        assert tr1 is not tr2
        assert len(cache) == 2


class TestSpecializedPathEquivalence:
    """The inlined TD resolver / DRAM model must match the method calls."""

    def test_td_fast_path_matches_bank_for(self):
        # Two identical machines; disable the specialisation on one by
        # pretending a bank died (the gate condition), forcing the
        # per-miss bank_for calls, then compare every counter.
        def run(force_slow):
            m = make("tdnuca")
            if force_slow:
                m.policy._dead_banks.add(99)  # nonexistent bank: same mapping
            region = Region(0, 8192, "d")
            t = Task(
                "t",
                (Dependency(region, DepMode.INOUT),),
                (AccessChunk(region, True),),
            )
            m.run_task_trace(0, t)
            return m.collect_stats()

        fast, slow = run(False), run(True)
        assert fast.llc.__dict__ == slow.llc.__dict__
        assert fast.l1.__dict__ == slow.l1.__dict__
        assert fast.traffic.router_bytes == slow.traffic.router_bytes
        assert fast.dram_reads == slow.dram_reads
        assert fast.dram_writes == slow.dram_writes
