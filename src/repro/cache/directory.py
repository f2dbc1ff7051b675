"""MESI-style coherence directory.

Tracks, per physical block, which cores' L1s hold a copy (a sharer bitmask)
and which core, if any, holds it modified (the owner).  This is the
directory abstraction of Ruby's MESI protocol reduced to its steady states:

* no sharers            — Invalid everywhere
* one sharer, owner     — Modified (or Exclusive) in that L1
* >=1 sharers, no owner — Shared

Transient/blocking states are unnecessary because the task-dataflow runtime
orders conflicting accesses (paper Section III-C2), and silent evictions
are modelled exactly as in Table I: clean L1 evictions do not notify the
directory, so stale presence bits are lazily corrected.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CoherenceDirectory", "DirectoryStats", "CoherenceActions"]


@dataclass
class DirectoryStats:
    invalidations_sent: int = 0
    downgrades_sent: int = 0
    entries_peak: int = 0

    def merge(self, other: "DirectoryStats") -> None:
        self.invalidations_sent += other.invalidations_sent
        self.downgrades_sent += other.downgrades_sent
        self.entries_peak = max(self.entries_peak, other.entries_peak)


@dataclass(frozen=True)
class CoherenceActions:
    """Coherence work triggered by one L1 fill.

    ``invalidate`` cores must drop their L1 copy; ``writeback_from`` (if
    any) held the block dirty and must supply the data (dirty writeback /
    owner-to-owner transfer).
    """

    invalidate: tuple[int, ...] = ()
    writeback_from: int | None = None


_NO_ACTIONS = CoherenceActions()


class CoherenceDirectory:
    """Full-map directory over L1 copies of physical blocks."""

    def __init__(self, num_cores: int) -> None:
        if num_cores <= 0:
            raise ValueError("num_cores must be positive")
        self.num_cores = num_cores
        self._sharers: dict[int, int] = {}  # block -> bitmask of cores
        self._owner: dict[int, int] = {}  # block -> core holding it dirty
        self.stats = DirectoryStats()

    # --- queries ---

    def sharers(self, block: int) -> list[int]:
        mask = self._sharers.get(block, 0)
        return [c for c in range(self.num_cores) if mask >> c & 1]

    def sharer_mask(self, block: int) -> int:
        return self._sharers.get(block, 0)

    def owner(self, block: int) -> int | None:
        return self._owner.get(block)

    def is_tracked(self, block: int) -> bool:
        return block in self._sharers

    @property
    def entries(self) -> int:
        return len(self._sharers)

    def tracked_items(self) -> list[tuple[int, int]]:
        """Snapshot of ``(block, sharer mask)`` pairs (invariant checks)."""
        return list(self._sharers.items())

    def owner_items(self) -> list[tuple[int, int]]:
        """Snapshot of ``(block, owner core)`` pairs (invariant checks)."""
        return list(self._owner.items())

    def audit(self) -> list[str]:
        """Internal-consistency check; returns human-readable anomalies.

        A tracked block must have a non-empty, in-range sharer mask; an
        owner must be an in-range core whose presence bit is set.  Stale
        presence bits (silent clean L1 evictions) are legal and not flagged.
        """
        issues: list[str] = []
        full = (1 << self.num_cores) - 1
        for block, mask in self._sharers.items():
            if mask == 0:
                issues.append(f"directory: block {block} tracked with empty mask")
            elif mask & ~full:
                issues.append(
                    f"directory: block {block} mask {mask:#x} names cores "
                    f">= {self.num_cores}"
                )
        for block, owner in self._owner.items():
            if not 0 <= owner < self.num_cores:
                issues.append(f"directory: block {block} owned by bad core {owner}")
            elif not (self._sharers.get(block, 0) >> owner) & 1:
                issues.append(
                    f"directory: block {block} owner {owner} lacks presence bit"
                )
        return issues

    # --- checkpoint/restore ---

    def state_dict(self) -> dict:
        return {
            "sharers": list(self._sharers.items()),
            "owner": list(self._owner.items()),
            "stats": {
                "invalidations_sent": self.stats.invalidations_sent,
                "downgrades_sent": self.stats.downgrades_sent,
                "entries_peak": self.stats.entries_peak,
            },
        }

    def load_state_dict(self, state: dict) -> None:
        self._sharers = {int(b): int(m) for b, m in state["sharers"]}
        self._owner = {int(b): int(c) for b, c in state["owner"]}
        self.stats = DirectoryStats(**state["stats"])

    # --- protocol events ---

    def on_l1_fill(self, core: int, block: int, write: bool) -> CoherenceActions:
        """Core ``core`` is filling (or upgrading) ``block``; returns the
        invalidations/downgrade the directory must perform first."""
        mask = self._sharers.get(block, 0)
        bit = 1 << core
        owner = self._owner.get(block)
        actions = _NO_ACTIONS
        if write:
            others = mask & ~bit
            if others:
                invalidate = tuple(
                    c for c in range(self.num_cores) if others >> c & 1
                )
                self.stats.invalidations_sent += len(invalidate)
                wb = owner if owner is not None and owner != core else None
                actions = CoherenceActions(invalidate, wb)
            self._sharers[block] = bit
            self._owner[block] = core
        else:
            if owner is not None and owner != core:
                # Downgrade the modified copy; owner keeps a shared copy.
                self.stats.downgrades_sent += 1
                actions = CoherenceActions((), owner)
                del self._owner[block]
            self._sharers[block] = mask | bit
        if len(self._sharers) > self.stats.entries_peak:
            self.stats.entries_peak = len(self._sharers)
        return actions

    def on_l1_evict(self, core: int, block: int, dirty: bool) -> None:
        """Core evicted ``block`` from its L1 (writeback if dirty; clean
        evictions are silent in Table I but we correct presence eagerly
        when the caller does tell us)."""
        mask = self._sharers.get(block, 0)
        mask &= ~(1 << core)
        if mask:
            self._sharers[block] = mask
        else:
            self._sharers.pop(block, None)
        if self._owner.get(block) == core:
            del self._owner[block]

    def drop_block(self, block: int) -> list[int]:
        """Remove all tracking for ``block`` (LLC eviction back-invalidation
        or flush); returns cores whose L1s must be invalidated."""
        mask = self._sharers.pop(block, 0)
        self._owner.pop(block, None)
        if mask & (mask - 1) or mask >> self.num_cores:
            cores = [c for c in range(self.num_cores) if mask >> c & 1]
        else:  # at most one sharer, the common case
            cores = [mask.bit_length() - 1] if mask else []
        self.stats.invalidations_sent += len(cores)
        return cores
