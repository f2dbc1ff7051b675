"""Whole-run block census for the Fig.-3 classification study.

Tracks, per unique (virtual) cache block, which cores accessed it and
whether it was ever written.  Fig. 3's left bars derive directly from this
(its caption defines: *private* = touched by exactly one core over the
whole run; *shared read-only* = touched by several cores, never written;
*shared* = the rest).

The per-block state is packed into one integer — core bitmask in the low
bits, written flag above — and each task is folded in from its trace's
unique-block segments (:func:`repro.runtime.trace.unique_segments`), so
the census adds O(unique blocks) work per task, not O(accesses).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BlockCensus", "RNucaCensus"]


@dataclass(frozen=True)
class RNucaCensus:
    """Unique-block counts by whole-run sharing behaviour."""

    private: int
    shared_read_only: int
    shared: int

    @property
    def total(self) -> int:
        return self.private + self.shared_read_only + self.shared

    def fractions(self) -> dict[str, float]:
        total = self.total or 1
        return {
            "private": self.private / total,
            "shared_read_only": self.shared_read_only / total,
            "shared": self.shared / total,
        }


class BlockCensus:
    """Census over every block touched during a run."""

    def __init__(self, num_cores: int) -> None:
        if num_cores <= 0:
            raise ValueError("num_cores must be positive")
        self.num_cores = num_cores
        self._written_bit = 1 << num_cores
        self._core_mask = self._written_bit - 1
        self._state: dict[int, int] = {}

    def record(self, core: int, segments) -> None:
        """Fold one task trace into the census.

        ``segments`` are the trace's unique blocks as ascending, disjoint
        ``(first, stop, written)`` runs.  Blocks new to the census are
        inserted in ascending order, which keeps :meth:`state_dict` stable.
        """
        if not 0 <= core < self.num_cores:
            raise ValueError("core out of range")
        bit = 1 << core
        wbits = bit | self._written_bit
        state = self._state
        get = state.get
        for first, stop, written in segments:
            bits = wbits if written else bit
            for block in range(first, stop):
                packed = get(block)
                if packed is None:
                    state[block] = bits
                elif packed | bits != packed:
                    state[block] = packed | bits

    # --- queries ---

    @property
    def unique_blocks(self) -> int:
        return len(self._state)

    def cores_of(self, block: int) -> list[int]:
        mask = self._state.get(block, 0) & self._core_mask
        return [c for c in range(self.num_cores) if mask >> c & 1]

    def was_written(self, block: int) -> bool:
        return bool(self._state.get(block, 0) & self._written_bit)

    def touched_blocks(self) -> np.ndarray:
        """All blocks ever touched, ascending."""
        return np.fromiter(self._state.keys(), dtype=np.int64, count=len(self._state))

    # --- checkpoint/restore ---

    def state_dict(self) -> dict:
        return {"state": list(self._state.items())}

    def load_state_dict(self, state: dict) -> None:
        self._state = {int(b): int(packed) for b, packed in state["state"]}

    def rnuca_census(self) -> RNucaCensus:
        """Classify every touched block per the Fig.-3 left-bar definition."""
        private = shared_ro = shared = 0
        wbit = self._written_bit
        cmask = self._core_mask
        for packed in self._state.values():
            cores = packed & cmask
            single = cores & (cores - 1) == 0
            if single:
                private += 1
            elif packed & wbit:
                shared += 1
            else:
                shared_ro += 1
        return RNucaCensus(private, shared_ro, shared)
