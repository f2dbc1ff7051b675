"""Fault injection behaviour: bank deaths, link deaths, DRAM transients.

Unit-level: each component degrades correctly in isolation.  End-to-end
coverage (whole workloads under faults) lives in
``tests/test_failure_injection.py``.
"""

from dataclasses import replace

import pytest

from repro.config import scaled_config
from repro.faults.injector import FaultInjector
from repro.faults.schedule import parse_fault_spec
from repro.noc.routing import fault_route, xy_route
from repro.noc.topology import Mesh
from repro.sim.machine import build_machine
from tests.conftest import tiny_config

CFG = tiny_config()


def _machine(policy="snuca", **overrides):
    cfg = replace(CFG, **overrides) if overrides else CFG
    return build_machine(cfg, policy)


def _run(machine, core, blocks, writes=None):
    w = [False] * len(blocks) if writes is None else [bool(x) for x in writes]
    return machine._run_blocks(core, [int(b) for b in blocks], w)


class TestBankDeath:
    def test_dead_bank_is_emptied_and_never_accessed(self):
        m = _machine()
        _run(m, 0, list(range(256)), [True] * 256)
        report = m.fail_bank(5)
        assert m.llc.banks[5].occupancy == 0
        assert report["blocks_lost"] > 0
        # Traffic now remaps: the dead bank's stats must not grow.
        before = m.llc.banks[5].stats.accesses
        _run(m, 1, list(range(256)))
        assert m.llc.banks[5].stats.accesses == before
        assert m.policy.stats.dead_bank_redirects > 0
        assert m.check_invariants() == []

    def test_redirect_is_deterministic_and_spread(self):
        m = _machine()
        m.fail_bank(5)
        targets = {m.policy.bank_for(0, b, False) for b in range(5, 4096, 16)}
        assert 5 not in targets
        assert len(targets) > 1  # spread over survivors, not one hot bank
        again = {m.policy.bank_for(0, b, False) for b in range(5, 4096, 16)}
        assert targets == again

    def test_orphaned_l1_copies_are_dropped(self):
        m = _machine()
        # Touch blocks homed on bank 3 so L1 and LLC both hold them.
        blocks = [3 + 16 * i for i in range(8)]
        _run(m, 0, blocks)
        assert all(m.l1s[0].contains(b) for b in blocks)
        report = m.fail_bank(3)
        assert report["l1_copies_dropped"] > 0
        assert m.check_invariants() == []

    def test_double_kill_rejected(self):
        m = _machine()
        m.fail_bank(2)
        with pytest.raises(ValueError):
            m.fail_bank(2)

    def test_cannot_kill_last_bank(self):
        m = _machine()
        for bank in range(15):
            m.fail_bank(bank)
        with pytest.raises(ValueError):
            m.fail_bank(15)
        # The lone survivor takes everything and the machine still runs.
        _run(m, 0, list(range(64)), [True] * 64)
        assert m.llc.banks[15].stats.accesses > 0
        assert m.check_invariants() == []

    def test_dnuca_location_table_purged(self):
        m = _machine("dnuca")
        _run(m, 0, list(range(128)))
        m.fail_bank(7)
        assert 7 not in m.policy._location.values()
        _run(m, 0, list(range(128)))  # re-access: migrations must avoid 7
        assert m.llc.banks[7].occupancy == 0
        assert m.check_invariants() == []

    def test_tdnuca_rrt_entries_dropped(self):
        m = _machine("tdnuca")
        m.rrts[0].register(0x1000, 0x2000, 1 << 9)
        m.rrts[1].register(0x1000, 0x2000, (1 << 9) | (1 << 10))
        m.rrts[2].register(0x5000, 0x6000, 1 << 11)
        report = m.fail_bank(9)
        assert report["rrt_entries_dropped"] == 2
        assert m.rrts[0].lookup(0x1000) is None
        assert m.rrts[2].lookup(0x5000) == 1 << 11


class TestLinkDeath:
    def test_distances_increase_and_inflation_reported(self):
        mesh = Mesh(4, 4, 2, 2)
        base = mesh.distance.copy()
        mesh.fail_link(0, 1)
        assert mesh.distance[0, 1] > base[0, 1]
        assert (mesh.distance >= base).all()
        assert mesh.mean_hop_inflation() > 0.0
        assert mesh.manhattan[0, 1] == 1  # baseline preserved

    def test_route_avoids_dead_link(self):
        mesh = Mesh(4, 4, 2, 2)
        mesh.fail_link(0, 1)
        path = mesh.route(0, 3)
        assert path[0] == 0 and path[-1] == 3
        hops = set(zip(path, path[1:]))
        assert (0, 1) not in hops and (1, 0) not in hops

    def test_fault_route_falls_back_only_when_needed(self):
        mesh = Mesh(4, 4, 2, 2)
        mesh.fail_link(1, 2)
        # XY path 0->3 crosses 1-2: must take the detour.
        assert fault_route(mesh, 0, 3) != xy_route(mesh, 0, 3)
        # XY path 4->7 does not touch the dead link: unchanged.
        assert fault_route(mesh, 4, 7) == xy_route(mesh, 4, 7)

    def test_disconnecting_failure_rejected(self):
        mesh = Mesh(2, 1, 1, 1)  # single link 0-1
        with pytest.raises(ValueError, match="disconnect"):
            mesh.fail_link(0, 1)
        assert not mesh.dead_links  # rolled back

    def test_non_adjacent_rejected(self):
        mesh = Mesh(4, 4, 2, 2)
        with pytest.raises(ValueError):
            mesh.fail_link(0, 5)

    def test_machine_runs_after_link_death(self):
        m = _machine()
        m.fail_link(1, 2)
        cycles = _run(m, 0, list(range(64)))
        assert cycles > 0
        assert m.check_invariants() == []


class TestDramTransients:
    def test_errors_charged_and_counted(self):
        m = _machine()
        import random

        m.dram.set_fault_model(
            0.5, 4, random.Random(1), retry_cost=m.latency.dram_retry
        )
        _run(m, 0, list(range(512)))
        st = m.dram.stats
        assert st.transient_errors > 0
        assert st.retries >= st.transient_errors
        assert st.retry_cycles > 0

    def test_zero_probability_is_free(self):
        a, b = _machine(), _machine()
        import random

        b.dram.set_fault_model(0.0, 4, random.Random(1))
        ca = _run(a, 0, list(range(256)))
        cb = _run(b, 0, list(range(256)))
        assert ca == cb
        assert b.dram.stats.retry_cycles == 0

    def test_retry_budget_bounds_the_penalty(self):
        import random

        m = _machine()
        m.dram.set_fault_model(0.95, 2, random.Random(1))
        _run(m, 0, list(range(128)))
        st = m.dram.stats
        assert st.retries_exhausted > 0
        # Never more than max_retries retries per access.
        assert st.retries <= 2 * st.accesses

    def test_latency_model_backoff_is_exponential(self):
        m = _machine()
        base = 100
        r1 = m.latency.dram_retry(1, base)
        r2 = m.latency.dram_retry(2, base)
        r3 = m.latency.dram_retry(3, base)
        assert (r2 - base) == 2 * (r1 - base)
        assert (r3 - base) == 4 * (r1 - base)
        with pytest.raises(ValueError):
            m.latency.dram_retry(0, base)


class TestInjector:
    def test_task_zero_events_fire_at_activation(self):
        m = _machine()
        schedule = parse_fault_spec("bank:4@task=0")
        injector = m.attach_faults(schedule)
        assert 4 in m.llc.dead_banks
        assert injector.pending_events == 0

    def test_events_fire_in_order_at_their_triggers(self):
        m = _machine()
        schedule = parse_fault_spec("bank:4@task=2,link:0-1@task=5")
        injector = m.attach_faults(schedule)
        assert not m.llc.dead_banks and injector.pending_events == 2
        injector.on_task_boundary(1)
        assert not m.llc.dead_banks
        injector.on_task_boundary(2)
        assert 4 in m.llc.dead_banks and injector.pending_events == 1
        injector.on_task_boundary(7)  # past the trigger still fires
        assert m.mesh.dead_links and injector.pending_events == 0

    def test_double_attach_rejected(self):
        m = _machine()
        m.attach_faults(parse_fault_spec("bank:4@task=0"))
        with pytest.raises(RuntimeError, match="already attached"):
            m.attach_faults(parse_fault_spec("bank:5@task=0"))

    def test_non_adjacent_link_fault_rejected_up_front(self):
        m = _machine()
        with pytest.raises(ValueError, match="neighbours"):
            FaultInjector(m, parse_fault_spec("link:0-5@task=9"))

    def test_snapshot_aggregates_machine_state(self):
        m = _machine()
        injector = m.attach_faults(
            parse_fault_spec("bank:4@task=0,link:0-1@task=0"), seed=3
        )
        _run(m, 0, list(range(128)))
        snap = injector.snapshot()
        assert snap.banks_failed == 1
        assert snap.links_failed == 1
        assert snap.dead_bank_redirects == m.policy.stats.dead_bank_redirects
        assert snap.mean_hop_inflation > 0
        assert snap.pending_events == 0


class TestEndToEnd:
    def test_build_machine_attaches_schedule_from_config(self):
        cfg = replace(
            scaled_config(1 / 2048), fault_spec="bank:6@task=0"
        )
        m = build_machine(cfg, "snuca")
        assert m.fault_injector is not None
        assert 6 in m.llc.dead_banks

    def test_dead_bank_access_raises_if_remap_bypassed(self):
        m = _machine()
        m.llc.kill_bank(8)
        with pytest.raises(RuntimeError, match="dead LLC bank"):
            m.llc.access(8, 8, False)
