"""Trace generation from access chunks."""

import numpy as np

from repro.deps import DepMode
from repro.mem.address import AddressMap
from repro.mem.region import Region
from repro.runtime.task import AccessChunk, Dependency, Task
from repro.runtime.trace import build_trace

AMAP = AddressMap(64, 512)
R = Region(0x1000, 0x100)  # blocks 64..67


def trace_of(*chunks):
    t = Task("t", (Dependency(R, DepMode.IN),), tuple(chunks))
    return build_trace(t, AMAP)


class TestSweeps:
    def test_read_sweep(self):
        tr = trace_of(AccessChunk(R, False))
        assert tr.vblocks.tolist() == [64, 65, 66, 67]
        assert not tr.writes.any()

    def test_write_sweep(self):
        tr = trace_of(AccessChunk(R, True))
        assert tr.writes.all()

    def test_passes_tile(self):
        tr = trace_of(AccessChunk(R, False, passes=3))
        assert len(tr) == 12
        assert tr.vblocks.tolist() == [64, 65, 66, 67] * 3

    def test_chunk_order_preserved(self):
        r2 = Region(0x2000, 0x40)  # block 128
        tr = trace_of(AccessChunk(r2, True), AccessChunk(R, False))
        assert tr.vblocks[0] == 128
        assert tr.writes[0]

    def test_partial_blocks_included(self):
        """The program really touches partially covered blocks; only
        TD-NUCA *management* excludes them (Section III-D)."""
        r = Region(0x1020, 0x50)  # straddles blocks 64..65
        tr = trace_of(AccessChunk(r, False))
        assert tr.vblocks.tolist() == [64, 65]

    def test_empty_task(self):
        t = Task("t", (Dependency(R, DepMode.IN),), (AccessChunk(Region(0, 1), False),))
        t2 = Task("empty", ())
        assert len(build_trace(t2, AMAP)) == 0


class TestRMW:
    def test_interleaved_read_write(self):
        tr = trace_of(AccessChunk(R, True, rmw=True))
        assert tr.vblocks.tolist() == [64, 64, 65, 65, 66, 66, 67, 67]
        assert tr.writes.tolist() == [False, True] * 4

    def test_rmw_passes(self):
        tr = trace_of(AccessChunk(R, True, passes=2, rmw=True))
        assert len(tr) == 16
        assert tr.writes.tolist() == [False, True] * 8


class TestDerivedTraces:
    def test_inout_dep_yields_rmw_trace(self):
        t = Task("t", (Dependency(R, DepMode.INOUT),))
        tr = build_trace(t, AMAP)
        assert tr.vblocks.tolist()[:2] == [64, 64]
        assert tr.writes.tolist()[:2] == [False, True]

    def test_shape_mismatch_rejected(self):
        from repro.runtime.trace import TaskTrace
        import pytest

        with pytest.raises(ValueError):
            TaskTrace(np.zeros(3, dtype=np.int64), np.zeros(2, dtype=bool))


class TestTraceCache:
    """The shared geometry-keyed LRU behind build_trace_cached."""

    def _task(self, start=0x1000, size=0x100):
        region = Region(start, size)
        return Task(
            "t",
            (Dependency(region, DepMode.IN),),
            (AccessChunk(region, False, 1),),
        )

    def test_shared_across_address_map_instances(self):
        from repro.runtime.trace import TraceCache

        cache = TraceCache()
        amap_twin = AddressMap(64, 512)
        tr1 = cache.get_or_build(self._task(), AMAP)
        tr2 = cache.get_or_build(self._task(), amap_twin)
        assert tr1 is tr2
        assert (cache.hits, cache.misses) == (1, 1)

    def test_distinct_geometry_distinct_entries(self):
        from repro.runtime.trace import TraceCache

        cache = TraceCache()
        tr1 = cache.get_or_build(self._task(), AMAP)
        tr2 = cache.get_or_build(self._task(), AddressMap(64, 4096))
        assert tr1 is not tr2
        assert len(cache) == 2

    def test_lru_eviction_keeps_recently_used(self):
        from repro.runtime.trace import TraceCache

        cache = TraceCache(max_entries=2)
        a = cache.get_or_build(self._task(0x0000), AMAP)
        cache.get_or_build(self._task(0x1000), AMAP)
        # Touch `a` so the 0x1000 expansion is the LRU victim.
        assert cache.get_or_build(self._task(0x0000), AMAP) is a
        cache.get_or_build(self._task(0x2000), AMAP)
        assert len(cache) == 2
        assert cache.get_or_build(self._task(0x0000), AMAP) is a  # still hot
        before = cache.misses
        cache.get_or_build(self._task(0x1000), AMAP)  # evicted -> rebuild
        assert cache.misses == before + 1

    def test_default_cache_is_process_shared(self):
        from repro.runtime.trace import build_trace_cached, shared_trace_cache

        t = self._task(0x8000)
        tr1 = build_trace_cached(t, AMAP)
        hits_before = shared_trace_cache.hits
        tr2 = build_trace_cached(self._task(0x8000), AMAP)
        assert tr1 is tr2
        assert shared_trace_cache.hits == hits_before + 1
