"""R-NUCA through the machine: classification drives placement and the
reclassification flushes really evict."""

from repro.nuca.classifier import PageClass
from repro.sim.machine import build_machine

from tests.conftest import tiny_config


def make():
    # page_bytes=512 -> 8 blocks per page.
    return build_machine(tiny_config(), "rnuca", fragmentation=0.0)


def run(machine, core, blocks, writes=None):
    """Classify pages then run blocks — what run_task_trace does."""
    w = [False] * len(blocks) if writes is None else [bool(x) for x in writes]
    pages = sorted({b >> 3 for b in blocks})
    wrote = [any(x and (b >> 3) == p for b, x in zip(blocks, w)) for p in pages]
    for action in machine.policy.classify_pages(core, pages, wrote):
        machine._apply_flush_action(action)
    machine._run_blocks(core, list(blocks), w)


class TestPrivatePlacement:
    def test_first_toucher_gets_local_bank(self):
        m = make()
        run(m, 5, [100])
        bank = 100 % 16
        # Not interleaved: placed in core 5's bank.
        assert m.llc.banks[5].contains(100)
        if bank != 5:
            assert not m.llc.banks[bank].contains(100)

    def test_private_distance_zero(self):
        m = make()
        run(m, 7, [200, 201, 202])
        assert m.traffic.mean_nuca_distance == 0.0


class TestReclassificationFlush:
    def test_private_to_shared_evicts_owner_copies(self):
        m = make()
        run(m, 0, [100], [True])  # core 0 writes -> private dirty, bank 0
        assert m.llc.banks[0].contains(100)
        assert m.l1s[0].contains(100)
        # Core 1 touches the page via run_task_trace's classify path:
        run2_blocks = [100]
        # _run_blocks bypasses classify_pages; invoke the policy hook the
        # way run_task_trace does.
        for action in m.policy.classify_pages(1, [100 >> 3], [False]):
            m._apply_flush_action(action)
        assert not m.llc.banks[0].contains(100)
        assert not m.l1s[0].contains(100)
        assert m.dram.stats.writes >= 1  # the dirty copy went to memory
        run(m, 1, run2_blocks)
        # Now shared: interleaved home bank.
        assert m.llc.banks[100 % 16].contains(100)

    def test_page_class_progression_through_traces(self):
        from repro.deps import DepMode
        from repro.mem.region import Region
        from repro.runtime.task import AccessChunk, Dependency, Task

        m = make()
        region = Region(0x40000, 512)  # one page
        page = m.pagetable.translate(region.start) >> m.amap.page_shift

        def task(write):
            return Task(
                "t",
                (Dependency(region, DepMode.INOUT if write else DepMode.IN),),
                (AccessChunk(region, write, rmw=write),),
            )

        m.run_task_trace(2, task(False))
        assert m.policy.classifier.classify(page) is PageClass.PRIVATE
        m.run_task_trace(9, task(False))
        assert m.policy.classifier.classify(page) is PageClass.SHARED_RO
        m.run_task_trace(4, task(True))
        assert m.policy.classifier.classify(page) is PageClass.SHARED
