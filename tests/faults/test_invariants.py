"""The invariant checker: clean machines pass, corrupted machines fail."""

from dataclasses import replace

import numpy as np
import pytest

from repro.faults.invariants import (
    InvariantChecker,
    InvariantError,
    check_machine,
)
from repro.sim.machine import build_machine
from tests.conftest import tiny_config

CFG = tiny_config()


def _machine(policy="snuca"):
    return build_machine(CFG, policy)


def _run(machine, core, blocks, writes=None):
    w = [False] * len(blocks) if writes is None else [bool(x) for x in writes]
    return machine._run_blocks(core, [int(b) for b in blocks], w)


class TestCleanMachines:
    def test_fresh_machine_is_clean(self):
        assert check_machine(_machine()) == []

    @pytest.mark.parametrize("policy", ["snuca", "rnuca", "dnuca", "tdnuca"])
    def test_exercised_machine_is_clean(self, policy):
        m = _machine(policy)
        rng = np.random.default_rng(42)
        for core in range(4):
            blocks = rng.integers(0, 2048, size=300)
            writes = rng.random(300) < 0.4
            _run(m, core, blocks, writes)
        assert check_machine(m) == []

    def test_clean_after_bank_and_link_death(self):
        m = _machine()
        _run(m, 0, list(range(512)), [True] * 512)
        m.fail_bank(9)
        m.fail_link(5, 6)
        _run(m, 1, list(range(512)))
        assert check_machine(m) == []


class TestCorruptionDetected:
    def test_untracked_l1_line(self):
        m = _machine()
        m.l1s[0].fill(17)  # L1 copy the directory never saw
        m.llc.banks[1].fill(17)  # keep inclusion satisfied
        violations = check_machine(m)
        assert any(v.check == "directory-presence" for v in violations)

    def test_dirty_l1_line_without_ownership(self):
        m = _machine()
        _run(m, 0, [17])  # clean, tracked fill
        m.l1s[0].access(17, True)  # dirty it behind the directory's back
        violations = check_machine(m)
        assert any(v.check == "directory-owner" for v in violations)

    def test_owner_without_l1_copy(self):
        m = _machine()
        _run(m, 0, [17], [True])
        m.l1s[0]._map[17 & m.l1s[0]._set_mask].pop(17)  # corrupt the map
        violations = check_machine(m)
        checks = {v.check for v in violations}
        assert "directory-owner" in checks or "occupancy-balance" in checks

    def test_inclusion_violation(self):
        m = _machine()
        _run(m, 0, [17])
        for bank in m.llc.banks:
            bank.invalidate(17)  # LLC drops it, L1 keeps it: not inclusive
        violations = check_machine(m)
        assert any(v.check == "llc-inclusion" for v in violations)

    def test_inclusion_not_enforced_for_tdnuca(self):
        m = _machine("tdnuca")
        m.rrts[0].register(0, 1 << 20, 0)  # bypass everything
        _run(m, 0, list(range(16)))
        # Bypassed lines live in L1 with no LLC copy — legal under TD-NUCA.
        assert all(not b.occupancy for b in m.llc.banks)
        assert m.l1s[0].occupancy > 0
        assert check_machine(m) == []

    def test_dead_bank_residency(self):
        m = _machine()
        m.llc.kill_bank(4)
        m.llc.banks[4]._occupancy = 0  # bypass guard; plant raw state
        m.llc.banks[4]._map[0][12345] = 0
        m.llc.banks[4]._ways[0][0] = 12345
        m.llc.banks[4]._occupancy = 1
        violations = check_machine(m)
        assert any(v.check == "dead-bank-residency" for v in violations)

    def test_occupancy_counter_drift(self):
        m = _machine()
        _run(m, 0, [1, 2, 3])
        m.l1s[0]._occupancy += 1
        violations = check_machine(m)
        assert any(v.check == "occupancy-balance" for v in violations)


class TestChecker:
    def test_interval_schedules_full_sweeps(self):
        m = _machine()
        checker = InvariantChecker(interval=4)
        for task in range(1, 9):
            checker.on_task_boundary(m, task)
        assert checker.checks_run == 8
        assert checker.full_sweeps == 2  # tasks 4 and 8

    def test_checker_raises_with_readable_message(self):
        m = _machine()
        m.l1s[0].fill(17)
        checker = InvariantChecker(interval=1)
        with pytest.raises(InvariantError) as exc:
            checker.on_task_boundary(m, 1)
        assert "directory" in str(exc.value)
        assert checker.violations_found > 0

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            InvariantChecker(interval=0)

    def test_strict_machine_runs_checker(self):
        cfg = replace(CFG, strict_invariants=True, strict_check_interval=2)
        m = build_machine(cfg, "snuca")
        assert m.invariant_checker is not None
        stats = m.collect_stats()  # triggers the final full sweep
        assert stats.extra["invariants"]["violations"] == 0
        assert stats.extra["invariants"]["full_sweeps"] >= 1
