"""Hardware D-NUCA: gradual migration, location table, machine wiring."""

import pytest

from repro.noc.topology import Mesh
from repro.nuca.dnuca import DNuca
from repro.sim.machine import build_machine

from tests.conftest import tiny_config

MESH = Mesh(4, 4)


def make_dnuca(threshold=2):
    return DNuca(MESH, migration_threshold=threshold)


class TestPlacement:
    def test_home_is_interleaved(self):
        d = make_dnuca()
        for blk in range(32):
            assert d.bank_for(0, blk, False) == blk % 16

    def test_validation(self):
        with pytest.raises(ValueError):
            DNuca(MESH, migration_threshold=0)
        with pytest.raises(ValueError):
            DNuca(Mesh(3, 3, 3, 3))


class TestMigration:
    def test_migrates_after_threshold(self):
        d = make_dnuca(threshold=2)
        bank = d.bank_for(0, 15, False)  # home = 15
        assert d.post_access(0, 15, bank) is None  # first access: streak 1
        mig = d.post_access(0, 15, bank)  # second: migrate
        assert mig is not None
        assert mig.src_bank == 15
        assert MESH.hops(mig.dst_bank, 0) == MESH.hops(15, 0) - 1
        assert d.bank_for(0, 15, False) == mig.dst_bank

    def test_streak_broken_by_other_core(self):
        d = make_dnuca(threshold=2)
        d.post_access(0, 15, 15)
        assert d.post_access(5, 15, 15) is None  # new streak for core 5
        assert d.post_access(5, 15, 15) is not None

    def test_no_migration_at_local_bank(self):
        d = make_dnuca(threshold=1)
        assert d.post_access(3, 99, 3) is None

    def test_converges_to_local_bank(self):
        d = make_dnuca(threshold=1)
        block, core = 15, 0
        for _ in range(10):
            bank = d.bank_for(core, block, False)
            d.post_access(core, block, bank)
        assert d.bank_for(core, block, False) == core
        assert d.migrations == MESH.hops(15, 0)

    def test_eviction_forgets_location(self):
        d = make_dnuca(threshold=1)
        d.post_access(0, 15, 15)
        assert d.blocks_relocated == 1
        d.evicted(15)
        assert d.bank_for(0, 15, False) == 15  # back home


class TestMachineIntegration:
    def test_machine_performs_migrations(self):
        m = build_machine(tiny_config(), "dnuca", fragmentation=0.0)
        blocks = [15]
        writes = [False]
        for _ in range(16):
            m.l1s[0].invalidate(15)  # force repeated LLC accesses
            m._run_blocks(0, blocks, writes)
        assert m.policy.migrations > 0
        # The block physically moved: resident in the new bank, not home.
        current = m.policy.bank_for(0, 15, False)
        assert current != 15
        assert m.llc.banks[current].contains(15)
        assert not m.llc.banks[15].contains(15)

    def test_migration_reduces_distance(self):
        m = build_machine(tiny_config(), "dnuca", fragmentation=0.0)
        blocks = [15]
        writes = [False]
        first = m._run_blocks(0, blocks, writes)
        for _ in range(20):
            m.l1s[0].invalidate(15)
            m._run_blocks(0, blocks, writes)
        m.l1s[0].invalidate(15)
        last = m._run_blocks(0, blocks, writes)
        assert last < first  # converged next to the requester

    def test_search_latency_charged(self):
        td = build_machine(tiny_config(), "snuca", fragmentation=0.0)
        dn = build_machine(tiny_config(), "dnuca", fragmentation=0.0)
        blocks = [7]
        writes = [False]
        c_s = td._run_blocks(0, blocks, writes)
        c_d = dn._run_blocks(0, blocks, writes)
        assert c_d == c_s + dn.policy.lookup_cycles
