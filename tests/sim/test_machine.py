"""Machine integration: the full L1 -> policy -> LLC -> DRAM access path."""

import pytest

from repro.deps import DepMode
from repro.mem.region import Region
from repro.nuca.base import BYPASS
from repro.runtime.task import AccessChunk, Dependency, Task
from repro.sim.machine import build_machine

from tests.conftest import tiny_config


def make(policy="snuca", **cfg_kw):
    return build_machine(tiny_config(**cfg_kw), policy, fragmentation=0.0)


def run_blocks(machine, core, blocks, writes=None):
    w = [False] * len(blocks) if writes is None else [bool(x) for x in writes]
    return machine._run_blocks(core, [int(b) for b in blocks], w)


def read_task(region, passes=1):
    return Task("t", (Dependency(region, DepMode.IN),), (AccessChunk(region, False, passes),))


class TestBuildMachine:
    @pytest.mark.parametrize(
        "policy",
        ["snuca", "rnuca", "dnuca", "tdnuca", "tdnuca-bypass-only", "tdnuca-noisa"],
    )
    def test_all_policies_build(self, policy):
        m = make(policy)
        assert m.num_cores == 16

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            make("hnuca")

    def test_tdnuca_has_hardware(self):
        m = make("tdnuca")
        assert m.isa is not None
        assert len(m.rrts) == 16

    def test_snuca_has_no_rrts(self):
        m = make("snuca")
        assert m.rrts is None

    def test_noisa_behaves_like_snuca(self):
        m = make("tdnuca-noisa")
        assert m.rrts is None  # no RRT latency on the access path
        assert m.isa is not None  # but the extension can sample it


class TestAccessPath:
    def test_cold_access_misses_everywhere(self):
        m = make()
        run_blocks(m, 0, [100])
        assert m.l1s[0].stats.misses == 1
        llc = m.llc.aggregate_stats()
        assert llc.misses == 1
        assert m.dram.stats.reads == 1

    def test_second_access_hits_l1(self):
        m = make()
        cycles1 = run_blocks(m, 0, [100])
        cycles2 = run_blocks(m, 0, [100])
        assert m.l1s[0].stats.hits == 1
        assert cycles2 < cycles1

    def test_l1_miss_llc_hit(self):
        m = make()
        run_blocks(m, 0, [100])
        # Evict block 100 from L1 (2 sets) but not the 64-block LLC bank...
        # use another core instead: its L1 is cold, the LLC is shared.
        run_blocks(m, 1, [100])
        assert m.llc.aggregate_stats().hits == 1
        assert m.dram.stats.reads == 1  # no second DRAM fetch

    def test_interleaved_bank_selection(self):
        m = make()
        run_blocks(m, 0, [0, 1, 2, 3])
        for bank in range(4):
            assert m.llc.banks[bank].stats.accesses == 1

    def test_nuca_distance_recorded(self):
        m = make()
        run_blocks(m, 0, [0])  # bank 0 is core 0's local bank
        assert m.traffic.mean_nuca_distance == 0.0
        run_blocks(m, 0, [15])  # bank 15: 6 hops away
        assert m.traffic.nuca_distance_sum == 6

    def test_compute_override(self):
        m = make()
        r = Region(0x10000, 64 * 8)
        t1 = read_task(r)
        t2 = Task(
            "t2", (Dependency(r, DepMode.IN),),
            (AccessChunk(r, False),), compute_per_access=1000,
        )
        c1 = m.run_task_trace(0, t1)
        c2 = m.run_task_trace(0, t2)
        assert c2 > c1 + 6000


class TestWritebacks:
    def test_dirty_l1_eviction_writes_back_to_llc(self):
        m = make()
        # L1: 2 sets x 8 ways.  Fill set 0 with dirty blocks, then overflow.
        blocks = [i * 2 for i in range(8)]
        run_blocks(m, 0, blocks, [True] * 8)
        before = sum(b.stats.write_hits for b in m.llc.banks)
        run_blocks(m, 0, [100], [False])  # evicts a dirty victim
        llc_writes = sum(
            b.stats.write_hits + b.stats.misses for b in m.llc.banks
        )
        assert llc_writes > before

    def test_llc_dirty_eviction_goes_to_dram(self):
        m = make()
        # Fill one LLC bank set beyond assoc with dirty writebacks:
        # write blocks mapping to bank 0, set 0: block = 64*k (64 banks*... )
        # bank = blk % 16, set = (blk) % 4 within bank: choose blk = 64*k.
        blocks = [64 * k for k in range(40)]
        run_blocks(m, 0, blocks, [True] * 40)
        # L1 evictions wrote dirty data into LLC bank 0; filling further
        # evicts dirty LLC victims to DRAM.
        assert m.dram.stats.writes > 0


class TestInclusiveBackInvalidation:
    def test_llc_eviction_drops_l1_copy(self):
        m = make()
        run_blocks(m, 0, [0])  # resident in L1[0] and LLC bank 0
        assert m.l1s[0].contains(0)
        # Thrash LLC bank 0, set 0 (16-way): 20 more blocks same set.
        filler = [64 * k for k in range(1, 21)]
        run_blocks(m, 1, filler)
        assert not m.llc.banks[0].contains(0)
        assert not m.l1s[0].contains(0)  # back-invalidated


class TestCoherence:
    def test_remote_write_invalidates_reader(self):
        m = make()
        run_blocks(m, 0, [100], [False])
        run_blocks(m, 1, [100], [True])
        assert not m.l1s[0].contains(100)
        assert m.directory.stats.invalidations_sent >= 1

    def test_remote_read_downgrades_writer(self):
        m = make()
        run_blocks(m, 0, [100], [True])
        assert m.l1s[0].is_dirty(100)
        run_blocks(m, 1, [100], [False])
        assert m.l1s[0].contains(100)
        assert not m.l1s[0].is_dirty(100)
        assert m.directory.stats.downgrades_sent == 1

    def test_write_hit_upgrade(self):
        m = make()
        run_blocks(m, 0, [100], [False])
        run_blocks(m, 1, [100], [False])
        # Core 0 writes its cached copy: upgrade must invalidate core 1.
        run_blocks(m, 0, [100, 100], [False, True])
        assert not m.l1s[1].contains(100)


class TestBypass:
    def make_bypass_machine(self):
        m = make("tdnuca")
        region = Region(0x10000, 64 * 16)
        m.pagetable.ensure_mapped(region)
        start = m.pagetable.translate(region.start)
        for rrt in m.rrts:
            rrt.register(start, start + region.size, 0)
        return m, region

    def test_bypass_skips_llc(self):
        m, region = self.make_bypass_machine()
        m.run_task_trace(0, read_task(region))
        assert m.llc.aggregate_stats().accesses == 0
        assert m.dram.stats.reads == 16
        assert m.policy.stats.bypasses == 16

    def test_bypass_not_counted_in_nuca_distance(self):
        m, region = self.make_bypass_machine()
        m.run_task_trace(0, read_task(region))
        assert m.traffic.nuca_distance_count == 0

    def test_bypassed_dirty_eviction_goes_to_dram(self):
        m, region = self.make_bypass_machine()
        t = Task(
            "w", (Dependency(region, DepMode.OUT),), (AccessChunk(region, True),)
        )
        m.run_task_trace(0, t)
        # Overflow the L1 with reads of another (also bypassed) area: the
        # dirty victims must be written straight to DRAM.
        before = m.dram.stats.writes
        m.run_task_trace(0, read_task(region))
        assert m.dram.stats.writes >= before


class TestFlushExecutor:
    def test_l1_flush_writes_back_dirty(self):
        m = make("tdnuca")
        run_blocks(m, 2, [100], [True])
        flushed, dirty = m._execute_flush([100], "l1", (2,))
        assert (flushed, dirty) == (1, 1)
        assert not m.l1s[2].contains(100)
        assert m.dram.stats.writes == 1

    def test_llc_flush(self):
        m = make("tdnuca")
        run_blocks(m, 0, [100], [False])
        bank = 100 % 16
        flushed, dirty = m._execute_flush([100], "llc", (bank,))
        assert flushed == 1
        assert not m.llc.banks[bank].contains(100)

    def test_flush_misses_are_harmless(self):
        m = make("tdnuca")
        assert m._execute_flush([1, 2, 3], "l1", (0,)) == (0, 0)


class TestScratchTraffic:
    def test_nondep_blocks_added(self):
        m = build_machine(
            tiny_config(nondep_blocks_per_task=8), "snuca", fragmentation=0.0
        )
        region = Region(0x10000, 64 * 4)
        m.run_task_trace(0, read_task(region))
        # 4 dep blocks + 8 scratch read + 8 scratch write.
        assert m.l1s[0].stats.accesses == 20

    def test_scratch_does_not_alias_workload(self):
        m = build_machine(
            tiny_config(nondep_blocks_per_task=8), "snuca", fragmentation=0.0
        )
        assert m.census is not None
        region = Region(0x10000, 64 * 4)
        m.run_task_trace(0, read_task(region))
        # Scratch blocks live at the top of the VA space.
        touched = m.census.touched_blocks()
        high = touched[touched >= (1 << 40) >> 6]
        assert len(high) == 8


class TestResetStats:
    def test_counters_zeroed_state_kept(self):
        m = make("tdnuca")
        run_blocks(m, 0, [100, 101], [True, False])
        m.reset_stats()
        assert m.l1s[0].stats.accesses == 0
        assert m.llc.aggregate_stats().accesses == 0
        assert m.dram.stats.reads == 0
        assert m.traffic.router_bytes == 0
        assert m.census.unique_blocks == 0
        # Cache contents survive: next access is an L1 hit.
        run_blocks(m, 0, [100])
        assert m.l1s[0].stats.hits == 1


class TestCensusIntegration:
    def test_census_records_virtual_blocks(self):
        m = make()
        region = Region(0x10000, 64 * 4)
        m.run_task_trace(3, read_task(region))
        census = m.census.rnuca_census()
        assert census.private == 4
        m.run_task_trace(5, read_task(region))
        assert m.census.rnuca_census().shared_read_only == 4
