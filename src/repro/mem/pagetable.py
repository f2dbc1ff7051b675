"""Virtual-to-physical page mapping.

Stands in for the Linux page allocator the paper simulates in detail: on
first touch, each virtual page is assigned a physical frame.  Frames are
handed out mostly contiguously, with a configurable probability of a
discontinuity, because the paper's RRT registration (Fig. 5) collapses
*contiguous* physical pages into single RRT entries — fragmentation is what
makes large dependencies occupy multiple RRT entries (Section V-E observes
this for Jacobi, MD5 and Redblack).
"""

from __future__ import annotations

import numpy as np

from repro.mem.address import AddressMap
from repro.mem.region import Region

__all__ = ["PageTable"]


class PageTable:
    """First-touch VA->PA page table with controllable fragmentation.

    Parameters
    ----------
    amap:
        Address geometry.
    fragmentation:
        Probability in ``[0, 1]`` that a newly allocated frame does *not*
        directly follow the previously allocated one.
    seed:
        Seed for the fragmentation RNG (deterministic mappings).
    """

    def __init__(
        self,
        amap: AddressMap,
        fragmentation: float = 0.05,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= fragmentation <= 1.0:
            raise ValueError("fragmentation must be in [0, 1]")
        self.amap = amap
        self.fragmentation = fragmentation
        self._rng = np.random.default_rng(seed)
        self._map: dict[int, int] = {}
        self._next_frame = 1  # frame 0 reserved
        self._max_frame = amap.max_physical_address >> amap.page_shift

    # --- frame allocation ---

    def _allocate_frame(self) -> int:
        frame = self._next_frame
        if frame > self._max_frame:
            raise MemoryError("simulated physical address space exhausted")
        gap = 0
        if self.fragmentation > 0 and self._rng.random() < self.fragmentation:
            gap = int(self._rng.integers(1, 64))
        self._next_frame = frame + 1 + gap
        return frame

    # --- checkpoint/restore ---

    def state_dict(self) -> dict:
        return {
            "map": list(self._map.items()),
            "next_frame": self._next_frame,
            "rng": self._rng.bit_generator.state,
        }

    def load_state_dict(self, state: dict) -> None:
        self._map = {int(v): int(f) for v, f in state["map"]}
        self._next_frame = int(state["next_frame"])
        self._rng.bit_generator.state = state["rng"]

    # --- mapping ---

    def translate_page(self, vpage: int) -> int:
        """Physical frame for virtual page ``vpage`` (first-touch allocate)."""
        frame = self._map.get(vpage)
        if frame is None:
            frame = self._allocate_frame()
            self._map[vpage] = frame
        return frame

    def is_mapped(self, vpage: int) -> bool:
        return vpage in self._map

    def translate(self, vaddr: int) -> int:
        """Physical byte address for virtual byte address ``vaddr``."""
        frame = self.translate_page(vaddr >> self.amap.page_shift)
        return (frame << self.amap.page_shift) | (vaddr & (self.amap.page_bytes - 1))

    def ensure_mapped(self, region: Region) -> None:
        """Touch every page of ``region`` so frames exist."""
        for vpage in region.pages(self.amap):
            self.translate_page(vpage)

    def _map_pages(self, spans) -> None:
        """Allocate frames for every unmapped page of the block ``spans``,
        in ascending page order (one fragmentation draw per frame)."""
        shift = self.amap.page_shift - self.amap.block_shift
        pt_map = self._map
        missing = {
            page
            for first, stop in spans
            for page in range(first >> shift, ((stop - 1) >> shift) + 1)
            if page not in pt_map
        }
        for page in sorted(missing):
            pt_map[page] = self._allocate_frame()

    def translate_blocks(self, spans) -> list[list[int]]:
        """Physical block numbers of each virtual block span ``[first, stop)``.

        Frames for pages not yet mapped are allocated first, in ascending
        virtual-page order over all the spans (the order a translation of
        the sorted unique pages would take), so the fragmentation RNG sees
        the same sequence however the spans are ordered.  Equal spans
        share one result list.
        """
        try:
            return self._translate_spans(spans)
        except KeyError:  # first touch of some page
            self._map_pages(spans)
            return self._translate_spans(spans)

    def _translate_spans(self, spans) -> list[list[int]]:
        shift = self.amap.page_shift - self.amap.block_shift
        offset_mask = (1 << shift) - 1
        page_blocks = 1 << shift
        pt_map = self._map
        translated: dict[tuple[int, int], list[int]] = {}
        out: list[list[int]] = []
        for span in spans:
            sweep = translated.get(span)
            if sweep is None:
                first, stop = span
                page = first >> shift
                last = (stop - 1) >> shift
                # A page's blocks stay contiguous behind its frame; runs
                # of consecutive frames extend one physical range.
                lo = (pt_map[page] << shift) | (first & offset_mask)
                hi = (lo | offset_mask) + 1
                sweep = []
                while page < last:
                    page += 1
                    base = pt_map[page] << shift
                    if base != hi:
                        sweep += range(lo, hi)
                        lo = base
                    hi = base + page_blocks
                sweep += range(lo, hi - offset_mask + ((stop - 1) & offset_mask))
                translated[span] = sweep
            out.append(sweep)
        return out

    def written_frames(self, segments) -> tuple[list[int], list[bool]]:
        """Ascending physical frames under the virtual block ``segments``
        (``(first, stop, written)``, all mapped), each with whether a
        written segment covers part of it."""
        shift = self.amap.page_shift - self.amap.block_shift
        pt_map = self._map
        wrote: dict[int, bool] = {}
        for first, stop, written in segments:
            for page in range(first >> shift, ((stop - 1) >> shift) + 1):
                frame = pt_map[page]
                wrote[frame] = wrote.get(frame, False) or written
        frames = sorted(wrote)
        return frames, [wrote[f] for f in frames]

    # --- range collapsing (paper Fig. 5) ---

    def physical_ranges(self, region: Region) -> list[tuple[int, int]]:
        """Contiguous physical byte ranges ``(start, end)`` covering ``region``.

        This mirrors the iterative translation performed by the
        ``tdnuca_register`` instruction: walk virtual pages, translate each,
        and collapse physically contiguous pages into a single range.  The
        first and last ranges are clipped to the region's byte bounds.
        """
        if not region:
            return []
        ranges: list[tuple[int, int]] = []
        page_bytes = self.amap.page_bytes
        run_start = run_end = None
        for vpage in region.pages(self.amap):
            pstart = self.translate_page(vpage) << self.amap.page_shift
            # Clip to the region's bytes within this page.
            lo = max(region.start, vpage << self.amap.page_shift)
            hi = min(region.end, (vpage + 1) << self.amap.page_shift)
            plo = pstart + (lo & (page_bytes - 1))
            phi = pstart + ((hi - 1) & (page_bytes - 1)) + 1
            if run_end is not None and plo == run_end:
                run_end = phi
            else:
                if run_start is not None:
                    ranges.append((run_start, run_end))
                run_start, run_end = plo, phi
        if run_start is not None:
            ranges.append((run_start, run_end))
        return ranges

    @property
    def pages_mapped(self) -> int:
        return len(self._map)
