"""Runtime Region Table (RRT) — Section III-B.

One RRT per core.  Each entry holds the start and end *physical* address of
a memory region and the ``BankMask`` naming the LLC banks the region is
mapped to (0 bits = bypass, 1 bit = single bank, k bits = spread across a
cluster).  The table performs TCAM-style range lookups; we model it as a
sorted-array binary search, which is exact because the runtime keeps
registered ranges non-overlapping.

Capacity behaviour follows the paper precisely: **no replacement policy** —
when the table is full, further registrations are dropped and those ranges
simply fall back to S-NUCA interleaving (functionality is preserved, only
optimization opportunity is lost).

The multiprogramming extension of Section III-D (process-ID tagging) is
implemented: entries are tagged with a PID and lookups only match entries
of the active process.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache

__all__ = ["RRT", "RRTEntry", "RRTStats", "decode_bank_mask"]


@lru_cache(maxsize=4096)
def decode_bank_mask(mask: int) -> tuple[int, ...]:
    """Bank indices set in ``mask``, ascending.  Cached: masks repeat."""
    if mask < 0:
        raise ValueError("bank mask must be non-negative")
    out = []
    bank = 0
    m = mask
    while m:
        if m & 1:
            out.append(bank)
        m >>= 1
        bank += 1
    return tuple(out)


@dataclass(frozen=True)
class RRTEntry:
    """One registered physical range ``[start, end)`` with its BankMask."""

    start: int
    end: int
    bank_mask: int
    pid: int = 0


@dataclass
class RRTStats:
    lookups: int = 0
    hits: int = 0
    registrations: int = 0
    drops_full: int = 0
    invalidations: int = 0
    peak_occupancy: int = 0


@dataclass
class _PidTable:
    starts: list[int] = field(default_factory=list)
    ends: list[int] = field(default_factory=list)
    masks: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.starts)


class RRT:
    """Per-core Runtime Region Table."""

    def __init__(self, core: int, capacity: int = 64) -> None:
        if capacity <= 0:
            raise ValueError("RRT capacity must be positive")
        self.core = core
        self.capacity = capacity
        self._tables: dict[int, _PidTable] = {}
        #: valid entries across every PID's table, kept as a running count.
        self._occupancy = 0
        self._active_pid = 0
        self.stats = RRTStats()

    # --- process management (Section III-D extension) ---

    @property
    def active_pid(self) -> int:
        return self._active_pid

    def set_active_pid(self, pid: int) -> None:
        self._active_pid = pid

    def drop_pid(self, pid: int) -> int:
        """Remove all entries of a terminated process; returns count."""
        table = self._tables.pop(pid, None)
        if not table:
            return 0
        self._occupancy -= len(table)
        return len(table)

    # --- occupancy ---

    @property
    def occupancy(self) -> int:
        """Total valid entries across all processes (shared capacity)."""
        return self._occupancy

    def entries(self, pid: int | None = None) -> list[RRTEntry]:
        """Snapshot of entries (active PID by default)."""
        pid = self._active_pid if pid is None else pid
        table = self._tables.get(pid)
        if not table:
            return []
        return [
            RRTEntry(s, e, m, pid)
            for s, e, m in zip(table.starts, table.ends, table.masks)
        ]

    # --- registration / invalidation ---

    def register(self, start: int, end: int, bank_mask: int) -> bool:
        """Register ``[start, end)`` -> ``bank_mask`` for the active PID.

        Returns False when the table is full (the range is dropped and will
        fall back to S-NUCA).  Re-registering an identical range with the
        same mask is idempotent; an overlapping registration replaces the
        overlapped entries (the runtime invalidates before remapping, so
        this is a robustness fallback, counted as invalidations).
        """
        if end <= start:
            raise ValueError("empty or inverted range")
        if bank_mask < 0:
            raise ValueError("bank mask must be non-negative")
        table = self._tables.setdefault(self._active_pid, _PidTable())
        # Idempotent fast path.
        i = bisect_right(table.starts, start) - 1
        if (
            i >= 0
            and table.starts[i] == start
            and table.ends[i] == end
            and table.masks[i] == bank_mask
        ):
            self.stats.registrations += 1
            return True
        self._remove_overlaps(table, start, end)
        if self._occupancy >= self.capacity:
            self.stats.drops_full += 1
            return False
        j = bisect_right(table.starts, start)
        table.starts.insert(j, start)
        table.ends.insert(j, end)
        table.masks.insert(j, bank_mask)
        self.stats.registrations += 1
        self._occupancy += 1
        if self._occupancy > self.stats.peak_occupancy:
            self.stats.peak_occupancy = self._occupancy
        return True

    def _remove_overlaps(self, table: _PidTable, start: int, end: int) -> None:
        # bisect_left so an adjacent entry starting exactly at ``end`` is
        # excluded (it does not overlap) rather than terminating the scan.
        i = bisect_left(table.starts, end) - 1
        while i >= 0 and table.ends[i] > start:
            del table.starts[i], table.ends[i], table.masks[i]
            self.stats.invalidations += 1
            self._occupancy -= 1
            i -= 1

    def drop_bank_entries(self, bank: int) -> int:
        """Fault injection: de-register every entry (all PIDs) whose
        BankMask names ``bank`` — the bank died, so those mappings are
        stale.  The affected regions fall back to S-NUCA interleaving
        (which the policy remaps around the dead bank).  Bypass entries
        (mask 0) are untouched.  Returns the number of entries dropped.
        """
        if bank < 0:
            raise ValueError("bank must be non-negative")
        bit = 1 << bank
        dropped = 0
        for table in self._tables.values():
            for i in range(len(table.starts) - 1, -1, -1):
                if table.masks[i] & bit:
                    del table.starts[i], table.ends[i], table.masks[i]
                    dropped += 1
        self.stats.invalidations += dropped
        self._occupancy -= dropped
        return dropped

    def invalidate(self, start: int, end: int) -> int:
        """De-register entries overlapping ``[start, end)`` (active PID).

        Returns the number of entries removed.
        """
        return self.invalidate_ranges(((start, end),))

    def invalidate_ranges(self, ranges) -> int:
        """De-register entries overlapping any ``[start, end)`` of
        ``ranges`` (active PID), range by range; returns the number of
        entries removed."""
        table = self._tables.get(self._active_pid)
        if not table:
            return 0
        starts, ends = table.starts, table.ends
        before = self.stats.invalidations
        for start, end in ranges:
            # The entry starting last before ``end`` overlaps, or none does.
            i = bisect_left(starts, end) - 1
            if i >= 0 and ends[i] > start and end > start:
                self._remove_overlaps(table, start, end)
        return self.stats.invalidations - before

    def migrate_to(self, other: "RRT", pid: int | None = None) -> int:
        """Thread-migration support (Section III-D): move this core's
        entries for ``pid`` into ``other``; returns entries moved (entries
        that do not fit in the destination are dropped)."""
        pid = self._active_pid if pid is None else pid
        table = self._tables.pop(pid, None)
        if not table:
            return 0
        self._occupancy -= len(table)
        moved = 0
        saved_pid = other._active_pid
        other._active_pid = pid
        try:
            for s, e, m in zip(table.starts, table.ends, table.masks):
                if other.register(s, e, m):
                    moved += 1
        finally:
            other._active_pid = saved_pid
        return moved

    # --- checkpoint/restore ---

    def state_dict(self) -> dict:
        return {
            "tables": [
                (pid, list(t.starts), list(t.ends), list(t.masks))
                for pid, t in self._tables.items()
            ],
            "active_pid": self._active_pid,
            "stats": {
                "lookups": self.stats.lookups,
                "hits": self.stats.hits,
                "registrations": self.stats.registrations,
                "drops_full": self.stats.drops_full,
                "invalidations": self.stats.invalidations,
                "peak_occupancy": self.stats.peak_occupancy,
            },
        }

    def load_state_dict(self, state: dict) -> None:
        self._tables = {
            int(pid): _PidTable(
                [int(s) for s in starts],
                [int(e) for e in ends],
                [int(m) for m in masks],
            )
            for pid, starts, ends, masks in state["tables"]
        }
        self._occupancy = sum(len(t) for t in self._tables.values())
        self._active_pid = int(state["active_pid"])
        self.stats = RRTStats(**state["stats"])

    # --- the hot-path lookup ---

    def lookup(self, paddr: int) -> int | None:
        """BankMask of the entry containing ``paddr``, else None."""
        st = self.stats
        st.lookups += 1
        table = self._tables.get(self._active_pid)
        if table is None:
            return None
        starts = table.starts
        if not starts:
            return None
        i = bisect_right(starts, paddr) - 1
        if i >= 0 and paddr < table.ends[i]:
            st.hits += 1
            return table.masks[i]
        return None
