"""Randomized coherence fuzzing: the directory must stay consistent.

Thousands of randomly interleaved reads, writes and flushes from all
cores over a small, heavily contended block pool — maximum sharing,
upgrades, downgrades and back-invalidation churn.  After every burst the
machine-wide invariant checker must find nothing: every L1-resident line
tracked, every dirty line owned, inclusion preserved, occupancy balanced.
Seeds are fixed so a failure is exactly reproducible.
"""

import numpy as np
import pytest

from repro.faults.invariants import check_machine
from repro.nuca.base import FlushAction
from repro.sim.machine import build_machine
from tests.conftest import tiny_config

CFG = tiny_config()
ALL_CORES = tuple(range(CFG.num_cores))
ALL_BANKS = tuple(range(CFG.num_banks))


def _fuzz(seed: int, *, policy: str = "snuca", rounds: int = 30) -> None:
    rng = np.random.default_rng(seed)
    machine = build_machine(CFG, policy)
    # A pool small enough that cores constantly collide on blocks.
    pool = 512
    for _ in range(rounds):
        core = int(rng.integers(CFG.num_cores))
        op = rng.random()
        if op < 0.85:
            n = int(rng.integers(1, 64))
            blocks = rng.integers(0, pool, size=n)
            writes = rng.random(n) < 0.5
            machine._run_blocks(core, blocks.tolist(), writes.tolist())
        else:
            # Flush a random slice from both levels; pairing L1 and LLC
            # keeps the inclusive hierarchy's contract intact.
            n = int(rng.integers(1, 32))
            blocks = tuple(int(b) for b in rng.integers(0, pool, size=n))
            machine._apply_flush_action(
                FlushAction(blocks, l1_cores=ALL_CORES, llc_banks=ALL_BANKS)
            )
        violations = check_machine(machine)
        assert violations == [], [str(v) for v in violations[:5]]


@pytest.mark.parametrize("seed", [0, 1, 2, 1234])
def test_fuzz_snuca(seed):
    _fuzz(seed)


@pytest.mark.parametrize("seed", [7, 99])
def test_fuzz_dnuca_migrations(seed):
    """D-NUCA adds block migration between banks to the interleaving."""
    _fuzz(seed, policy="dnuca")


def test_fuzz_with_mid_run_bank_death():
    """Coherence stays consistent when a bank dies amid the churn."""
    rng = np.random.default_rng(5)
    machine = build_machine(CFG, "snuca")
    for i in range(30):
        core = int(rng.integers(CFG.num_cores))
        blocks = rng.integers(0, 512, size=48)
        writes = rng.random(48) < 0.5
        machine._run_blocks(core, blocks.tolist(), writes.tolist())
        if i == 10:
            machine.fail_bank(6)
        if i == 20:
            machine.fail_bank(11)
        violations = check_machine(machine)
        assert violations == [], [str(v) for v in violations[:5]]
