"""Banked NUCA LLC: per-bank isolation and replication support."""

import pytest

from repro.cache.llc import NucaLLC


def make_llc(banks=4):
    return NucaLLC(banks, 1024, 4, 64)


class TestBanks:
    def test_bank_isolation(self):
        llc = make_llc()
        llc.access(0, 42, False)
        assert llc.contains(0, 42)
        assert not llc.contains(1, 42)

    def test_bad_bank_count(self):
        with pytest.raises(ValueError):
            NucaLLC(0, 1024, 4, 64)

    def test_per_bank_stats(self):
        llc = make_llc()
        llc.access(0, 1, False)
        llc.access(0, 1, False)
        llc.access(1, 1, False)
        assert llc.banks[0].stats.hits == 1
        assert llc.banks[1].stats.hits == 0

    def test_aggregate_stats(self):
        llc = make_llc()
        llc.access(0, 1, False)
        llc.access(1, 2, False)
        agg = llc.aggregate_stats()
        assert agg.misses == 2
        assert agg.accesses == 2

    def test_occupancy(self):
        llc = make_llc()
        llc.access(0, 1, False)
        llc.access(2, 9, False)
        assert llc.occupancy == 2


class TestReplication:
    def test_same_block_in_multiple_banks(self):
        llc = make_llc()
        for bank in (0, 1, 3):
            llc.access(bank, 7, False)
        assert llc.banks_holding(7) == [0, 1, 3]

    def test_invalidate_everywhere(self):
        llc = make_llc()
        llc.access(0, 7, True)
        llc.access(2, 7, False)
        copies, dirty = llc.invalidate_everywhere(7)
        assert copies == 2
        assert dirty == 1
        assert llc.banks_holding(7) == []

    def test_flush_blocks_single_bank(self):
        llc = make_llc()
        llc.access(0, 7, True)
        llc.access(1, 7, False)
        flushed, dirty = llc.flush_blocks(0, [7])
        assert (flushed, dirty) == (1, 1)
        assert llc.banks_holding(7) == [1]

    def test_clear(self):
        llc = make_llc()
        llc.access(0, 7, False)
        llc.clear()
        assert llc.occupancy == 0


def held(llc, block):
    """The residency mask's entry for ``block`` (0 when absent)."""
    return llc._where.get(block, 0)


def assert_mask_exact(llc):
    assert llc._where == llc.residency()


class TestResidencyMask:
    """The per-block bank mask follows every way a bank gains or loses a
    block, and equals what the banks hold."""

    def test_fill_without_victim(self):
        llc = make_llc()
        for bank in (0, 1, 3):
            llc.access(bank, 7, False)
        assert held(llc, 7) == 0b1011
        assert llc.any_bank_holds(7)
        assert not llc.any_bank_holds(8)
        assert_mask_exact(llc)

    def test_fill_with_victim(self):
        llc = make_llc()  # 4 sets x 4 ways: blocks 0, 4, 8, ... share set 0
        for block in (0, 4, 8, 12):
            llc.access(0, block, False)
        llc.access(2, 0, False)  # a replica of the coming victim
        res = llc.access(0, 16, False)
        assert res.evicted == 0  # PLRU: the oldest way goes
        assert held(llc, 0) == 0b0100  # bank 2's copy is still there
        assert held(llc, 16) == 0b0001
        res = llc.access(2, 4, False)  # no victim in bank 2's set 0 yet
        assert res.evicted is None
        assert held(llc, 4) == 0b0101
        assert_mask_exact(llc)

    def test_victim_without_replica_leaves_the_mask(self):
        llc = make_llc()
        for block in (0, 4, 8, 12, 16):
            llc.access(1, block, True)
        assert 0 not in llc._where
        assert len(llc._where) == llc.occupancy == 4
        assert_mask_exact(llc)

    def test_write_fill_of_resident_block_keeps_one_bit(self):
        llc = make_llc()
        llc.banks[3].fill(9)
        llc.banks[3].fill(9, dirty=True)  # already resident: no new bit
        assert held(llc, 9) == 0b1000
        assert_mask_exact(llc)

    def test_invalidate(self):
        llc = make_llc()
        llc.access(0, 7, True)
        llc.access(2, 7, False)
        assert llc.banks[2].invalidate(7) == (True, False)
        assert held(llc, 7) == 0b0001
        assert llc.banks[2].invalidate(7) == (False, False)
        assert llc.invalidate_everywhere(7) == (1, 1)
        assert 7 not in llc._where
        assert_mask_exact(llc)

    def test_flush_blocks_collect(self):
        llc = make_llc()
        for bank in (0, 1):
            for block in (3, 5, 6):
                llc.access(bank, block, bank == 0)
        removed = llc.banks[0].flush_blocks_collect([5, 6, 11])
        assert removed == [(5, True), (6, True)]
        assert held(llc, 3) == 0b11
        assert held(llc, 5) == held(llc, 6) == 0b10
        llc.banks[1].flush_blocks_collect([5, 6])
        assert 5 not in llc._where and 6 not in llc._where
        assert_mask_exact(llc)

    def test_kill_bank_and_clear(self):
        llc = make_llc()
        for bank in range(4):
            llc.access(bank, 7, False)
            llc.access(bank, 20 + bank, False)
        llc.kill_bank(2)
        assert held(llc, 7) == 0b1011
        assert 22 not in llc._where
        assert_mask_exact(llc)
        llc.clear()
        assert llc._where == {}

    def test_load_state_dict_rebuilds_the_shared_mask(self):
        src = make_llc()
        for bank, block in ((0, 7), (1, 7), (3, 2), (2, 30)):
            src.access(bank, block, False)
        dst = make_llc()
        dst.access(1, 99, False)  # stale contents the load replaces
        shared = dst._where
        dst.load_state_dict(src.state_dict())
        assert dst._where is shared  # the banks still update this dict
        assert dst._where == src._where == {7: 0b11, 2: 0b1000, 30: 0b100}
        dst.access(0, 2, False)
        assert held(dst, 2) == 0b1001
        assert_mask_exact(dst)

    def test_l1_banks_carry_no_mask(self):
        from repro.cache.l1 import L1Cache

        l1 = L1Cache(0, 1024, 4, 64)
        l1.access(5, True)
        l1.invalidate(5)
        assert l1._where is None


class TestResidencyMaskOnTheMachine:
    """Mutation paths that go through the machine rather than one bank."""

    def test_fail_bank(self):
        from repro.faults.invariants import check_machine
        from repro.sim.machine import build_machine
        from tests.conftest import tiny_config

        m = build_machine(tiny_config(), "snuca", fragmentation=0.0)
        m._run_blocks(0, list(range(256)), [True] * 256)
        lost = m.llc.banks[3].resident_blocks()
        assert lost
        m.fail_bank(3)
        assert not any(m.llc._where.get(b, 0) & 1 << 3 for b in lost)
        assert m.llc._where == m.llc.residency()
        assert check_machine(m) == []

    def test_dnuca_migration(self):
        from repro.faults.invariants import check_machine
        from repro.sim.machine import build_machine
        from tests.conftest import tiny_config

        m = build_machine(tiny_config(), "dnuca", fragmentation=0.0)
        m._run_blocks(0, list(range(1024)), [True] * 1024)  # full sets
        for block in (15, 47, 1007):
            for _ in range(16):  # repeated LLC accesses from core 0 migrate
                m.l1s[0].invalidate(block)
                m._run_blocks(0, [block], [False])
            bank = m.policy.bank_for(0, block, False)
            assert bank != block % 16
            assert m.llc._where[block] == 1 << bank
        assert m.policy.migrations > 0
        assert m.llc.aggregate_stats().evictions > 0
        assert m.llc._where == m.llc.residency()
        assert check_machine(m) == []
