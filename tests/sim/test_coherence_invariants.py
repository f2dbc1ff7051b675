"""Property-based coherence invariants under random multi-core traces.

After ANY interleaving of reads/writes from any cores, the steady-state
MESI invariants must hold machine-wide:

* single-writer: a block dirty in some L1 is resident in exactly one L1;
* directory-owner consistency: a dirty L1 block's directory owner is that
  core;
* inclusivity: an L1-resident block is resident in (some bank of) the LLC
  under S-NUCA (no bypass, no replication drops);
* the LLC residency mask names exactly the banks holding each block, and
  the whole invariant checker passes, under every policy and both kernels.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.invariants import check_machine
from repro.sim.kernels import make_kernel
from repro.sim.machine import build_machine

from tests.conftest import tiny_config

# (core, block, is_write) sequences over a small block space so that
# sharing, upgrades and evictions all actually happen.
accesses = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, 40),
        st.booleans(),
    ),
    min_size=1,
    max_size=150,
)


def apply_trace(machine, trace):
    for core, block, write in trace:
        machine._run_blocks(
            core,
            [block],
            [write],
        )


def dirty_holders(machine, block):
    return [
        c for c, l1 in enumerate(machine.l1s)
        if l1.contains(block) and l1.is_dirty(block)
    ]


@given(accesses)
@settings(max_examples=40, deadline=None)
def test_single_writer_invariant(trace):
    m = build_machine(tiny_config(), "snuca", fragmentation=0.0)
    apply_trace(m, trace)
    for block in range(41):
        holders = dirty_holders(m, block)
        if holders:
            # Dirty implies exclusive: no other L1 may hold the block.
            sharers = [c for c, l1 in enumerate(m.l1s) if l1.contains(block)]
            assert sharers == holders
            assert len(holders) == 1


@given(accesses)
@settings(max_examples=40, deadline=None)
def test_directory_owner_matches_dirty_copy(trace):
    m = build_machine(tiny_config(), "snuca", fragmentation=0.0)
    apply_trace(m, trace)
    for block in range(41):
        holders = dirty_holders(m, block)
        if holders:
            assert m.directory.owner(block) == holders[0]


@given(accesses)
@settings(max_examples=40, deadline=None)
def test_inclusive_llc(trace):
    m = build_machine(tiny_config(), "snuca", fragmentation=0.0)
    apply_trace(m, trace)
    for core, l1 in enumerate(m.l1s):
        for block in l1.resident_blocks():
            assert m.llc.banks_holding(block), (core, block)


@given(accesses)
@settings(max_examples=40, deadline=None)
def test_counters_consistent(trace):
    m = build_machine(tiny_config(), "snuca", fragmentation=0.0)
    apply_trace(m, trace)
    assert m.l1s and sum(l1.stats.accesses for l1 in m.l1s) == len(trace)
    llc = m.llc.aggregate_stats()
    assert llc.hits + llc.misses == llc.accesses
    # Every LLC demand miss fetched from DRAM (plus write-allocate fills
    # from writebacks can also read DRAM, so >=).
    assert m.dram.stats.reads >= llc.misses - llc.dirty_evictions - llc.invalidations


@pytest.mark.parametrize("kernel", ["reference", "vector"])
@pytest.mark.parametrize("policy", ["snuca", "rnuca", "dnuca", "tdnuca"])
@given(trace=accesses)
@settings(max_examples=25, deadline=None)
def test_residency_mask_and_checker_hold(policy, kernel, trace):
    m = build_machine(tiny_config(), policy, fragmentation=0.0)
    m.kernel = make_kernel(kernel)
    apply_trace(m, trace)
    assert m.llc._where == m.llc.residency()
    assert check_machine(m) == []
