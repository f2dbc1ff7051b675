"""Page table: first-touch allocation, fragmentation, range collapsing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.address import AddressMap
from repro.mem.pagetable import PageTable
from repro.mem.region import Region

AMAP = AddressMap(64, 4096)


def make_pt(frag=0.0, seed=0):
    return PageTable(AMAP, frag, seed)


class TestTranslation:
    def test_first_touch_allocates(self):
        pt = make_pt()
        assert not pt.is_mapped(5)
        frame = pt.translate_page(5)
        assert pt.is_mapped(5)
        assert pt.translate_page(5) == frame  # stable

    def test_distinct_pages_distinct_frames(self):
        pt = make_pt()
        frames = {pt.translate_page(p) for p in range(100)}
        assert len(frames) == 100

    def test_contiguous_without_fragmentation(self):
        pt = make_pt(0.0)
        frames = [pt.translate_page(p) for p in range(10)]
        assert frames == list(range(frames[0], frames[0] + 10))

    def test_fragmentation_creates_gaps(self):
        pt = make_pt(1.0, seed=1)
        frames = [pt.translate_page(p) for p in range(20)]
        gaps = [b - a for a, b in zip(frames, frames[1:])]
        assert any(g > 1 for g in gaps)

    def test_byte_translation_preserves_offset(self):
        pt = make_pt()
        vaddr = 5 * 4096 + 123
        paddr = pt.translate(vaddr)
        assert paddr % 4096 == 123

    def test_deterministic_across_instances(self):
        a, b = make_pt(0.5, seed=7), make_pt(0.5, seed=7)
        for p in range(50):
            assert a.translate_page(p) == b.translate_page(p)

    def test_bad_fragmentation(self):
        with pytest.raises(ValueError):
            PageTable(AMAP, 1.5)

    def test_ensure_mapped(self):
        pt = make_pt()
        pt.ensure_mapped(Region(0, 3 * 4096))
        assert pt.pages_mapped == 3


class TestVectorizedTranslation:
    @given(
        st.lists(st.integers(0, 1 << 20), min_size=1, max_size=200),
        st.floats(0, 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_scalar(self, vblocks, frag):
        pt = make_pt(frag, seed=3)
        got = [b for sweep in pt.translate_blocks([(b, b + 1) for b in vblocks]) for b in sweep]
        pt2 = make_pt(frag, seed=3)
        # Scalar reference must touch pages in the same (sorted-unique)
        # order the span translation does.
        shift = AMAP.page_shift - AMAP.block_shift
        for p in sorted({b >> shift for b in vblocks}):
            pt2.translate_page(p)
        expected = [
            (pt2.translate_page(b >> shift) << shift) | (b & ((1 << shift) - 1))
            for b in vblocks
        ]
        assert got == expected

    def test_same_page_blocks_stay_together(self):
        pt = make_pt()
        out = [b for sweep in pt.translate_blocks([(0, 3), (63, 64)]) for b in sweep]
        assert out[1] - out[0] == 1
        assert out[3] - out[0] == 63


class TestPhysicalRanges:
    def test_empty_region(self):
        assert make_pt().physical_ranges(Region(0, 0)) == []

    def test_single_page_clipped(self):
        pt = make_pt()
        ranges = pt.physical_ranges(Region(100, 200))
        assert len(ranges) == 1
        start, end = ranges[0]
        assert end - start == 200

    def test_contiguous_collapse(self):
        pt = make_pt(0.0)
        ranges = pt.physical_ranges(Region(0, 4 * 4096))
        assert len(ranges) == 1
        assert ranges[0][1] - ranges[0][0] == 4 * 4096

    def test_full_fragmentation_splits(self):
        pt = make_pt(1.0, seed=2)
        ranges = pt.physical_ranges(Region(0, 4 * 4096))
        assert len(ranges) == 4

    @given(st.integers(0, 1 << 20), st.integers(1, 5 * 4096), st.floats(0, 1))
    @settings(max_examples=25, deadline=None)
    def test_ranges_cover_exactly_region_bytes(self, start, size, frag):
        pt = make_pt(frag, seed=11)
        ranges = pt.physical_ranges(Region(start, size))
        assert sum(e - s for s, e in ranges) == size
        for s, e in ranges:
            assert e > s

    def test_matches_translate(self):
        pt = make_pt(0.8, seed=5)
        region = Region(1000, 3 * 4096)
        ranges = pt.physical_ranges(region)
        assert ranges[0][0] == pt.translate(region.start)
        assert ranges[-1][1] == pt.translate(region.end - 1) + 1


class TestExhaustion:
    def test_physical_space_exhaustion(self):
        small = AddressMap(64, 4096, physical_address_bits=14)  # 4 frames
        pt = PageTable(small, 0.0)
        for p in range(3):
            pt.translate_page(p)
        with pytest.raises(MemoryError):
            pt.translate_page(99)
