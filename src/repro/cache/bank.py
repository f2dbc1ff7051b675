"""Generic set-associative cache bank.

Used both for the private L1 caches and for each LLC bank.  Operates on
*physical block numbers* (already shifted by the block size); set selection
uses the low bits of the block number, as in a physically indexed cache.

The per-access path (:meth:`CacheBank.access`) is the hottest loop of the
whole simulator, so it is written flat: dict probe, way arrays, integer
PLRU state, no allocation on hits.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.cache.replacement import make_replacement

__all__ = ["CacheBank", "AccessResult", "BankStats"]


@dataclass
class BankStats:
    hits: int = 0
    misses: int = 0
    read_hits: int = 0
    write_hits: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    invalidations: int = 0
    flushed_blocks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0

    def merge(self, other: "BankStats") -> None:
        for f in (
            "hits",
            "misses",
            "read_hits",
            "write_hits",
            "evictions",
            "dirty_evictions",
            "invalidations",
            "flushed_blocks",
        ):
            setattr(self, f, getattr(self, f) + getattr(other, f))


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one block access.

    ``evicted`` is the block number displaced by the fill on a miss (or
    ``None``); ``evicted_dirty`` tells the caller whether a writeback of the
    victim is required.
    """

    hit: bool
    evicted: int | None = None
    evicted_dirty: bool = False


class CacheBank:
    """One set-associative bank holding block numbers with dirty bits."""

    def __init__(
        self,
        size_bytes: int,
        assoc: int,
        block_bytes: int,
        replacement: str = "plru",
        name: str = "",
    ) -> None:
        if size_bytes <= 0 or size_bytes % (assoc * block_bytes):
            raise ValueError("size must be a positive multiple of assoc * block")
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.block_bytes = block_bytes
        self.name = name
        self.num_sets = size_bytes // (assoc * block_bytes)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("number of sets must be a power of two")
        self._set_mask = self.num_sets - 1
        # Per-set state; dense lists indexed by set.
        self._map: list[dict[int, int]] = [dict() for _ in range(self.num_sets)]
        self._ways: list[list[int | None]] = [
            [None] * assoc for _ in range(self.num_sets)
        ]
        self._dirty: list[list[bool]] = [[False] * assoc for _ in range(self.num_sets)]
        self._repl = [make_replacement(replacement, assoc) for _ in range(self.num_sets)]
        # Tree-PLRU with a materialized victim table supports fully inlined
        # touch/victim on the hot path; LRU (and very wide PLRU trees, which
        # have no table) keep the method-call protocol.
        self._plru_fast = getattr(self._repl[0], "_victim", None) is not None
        # Maintained valid-block counter; audited against the per-set maps
        # by the runtime invariant checker (occupancy-counter balance).
        self._occupancy = 0
        # LLC residency mask, {block: bit mask of the banks holding it},
        # shared by every bank of one NucaLLC (which sets both fields);
        # this bank's bit is ``_bit``.  ``None`` for a bank outside an
        # LLC, the L1s among them.
        self._where: dict[int, int] | None = None
        self._bit = 0
        self.stats = BankStats()

    # --- queries (no state change) ---

    def set_index(self, block: int) -> int:
        return block & self._set_mask

    def contains(self, block: int) -> bool:
        return block in self._map[block & self._set_mask]

    def is_dirty(self, block: int) -> bool:
        s = block & self._set_mask
        way = self._map[s].get(block)
        return way is not None and self._dirty[s][way]

    @property
    def occupancy(self) -> int:
        """Number of valid blocks currently resident (O(1) counter)."""
        return self._occupancy

    def resident_blocks(self) -> list[int]:
        """All resident block numbers (test/diagnostic helper)."""
        out: list[int] = []
        for m in self._map:
            out.extend(m)
        return out

    def resident_items(self) -> list[tuple[int, bool]]:
        """``(block, dirty)`` for every resident block (invariant checks)."""
        out: list[tuple[int, bool]] = []
        for s, smap in enumerate(self._map):
            dirty = self._dirty[s]
            out.extend((block, dirty[way]) for block, way in smap.items())
        return out

    def audit(self) -> list[str]:
        """Internal-consistency check; returns human-readable anomalies.

        Verifies, per set, that the block->way map and the way array agree,
        and that the maintained occupancy counter balances against the maps.
        An empty list means the bank is structurally sound.
        """
        issues: list[str] = []
        total = 0
        for s in range(self.num_sets):
            smap, ways = self._map[s], self._ways[s]
            total += len(smap)
            valid_ways = sum(1 for w in ways if w is not None)
            if valid_ways != len(smap):
                issues.append(
                    f"{self.name or 'bank'} set {s}: {valid_ways} valid ways "
                    f"vs {len(smap)} mapped blocks"
                )
            for block, way in smap.items():
                if not 0 <= way < self.assoc or ways[way] != block:
                    issues.append(
                        f"{self.name or 'bank'} set {s}: block {block} maps "
                        f"to way {way} holding {ways[way] if 0 <= way < self.assoc else '?'}"
                    )
        if total != self._occupancy:
            issues.append(
                f"{self.name or 'bank'}: occupancy counter {self._occupancy} "
                f"!= {total} resident blocks"
            )
        return issues

    # --- the hot path ---

    def probe(self, block: int, write: bool) -> bool:
        """Hit fast path: on a hit, update stats/dirty/PLRU and return
        ``True``; on a miss return ``False`` *without* filling (and without
        counting the miss — pair with :meth:`fill_demand`)."""
        s = block & self._set_mask
        way = self._map[s].get(block)
        if way is None:
            return False
        st = self.stats
        st.hits += 1
        if write:
            st.write_hits += 1
            self._dirty[s][way] = True
        else:
            st.read_hits += 1
        repl = self._repl[s]
        if self._plru_fast:
            repl._bits = (repl._bits | repl._or[way]) & repl._and[way]
        else:
            repl.touch(way)
        return True

    def _insert(self, block: int, dirty: bool) -> tuple[int, bool]:
        """Place a non-resident ``block``; returns ``(evicted, dirty)``
        with ``evicted == -1`` when no victim was displaced.  The caller
        must have established that ``block`` is absent."""
        s = block & self._set_mask
        smap = self._map[s]
        ways = self._ways[s]
        repl = self._repl[s]
        fast = self._plru_fast
        where = self._where
        if len(smap) < self.assoc:
            way = ways.index(None)
            self._occupancy += 1
            evicted = -1
            evicted_dirty = False
        else:
            way = repl._victim[repl._bits] if fast else repl.victim()
            evicted = ways[way]
            evicted_dirty = self._dirty[s][way]
            del smap[evicted]
            st = self.stats
            st.evictions += 1
            if evicted_dirty:
                st.dirty_evictions += 1
            if where is not None:
                held = where[evicted] ^ self._bit
                if held:
                    where[evicted] = held
                else:
                    del where[evicted]
        if where is not None:
            if block in where:
                where[block] |= self._bit
            else:
                where[block] = self._bit
        ways[way] = block
        smap[block] = way
        self._dirty[s][way] = dirty
        if fast:
            repl._bits = (repl._bits | repl._or[way]) & repl._and[way]
        else:
            repl.touch(way)
        return evicted, evicted_dirty

    def fill_demand(self, block: int, write: bool) -> tuple[int, bool]:
        """Miss slow path: count a demand miss and insert ``block``;
        returns ``(evicted, evicted_dirty)`` with ``evicted == -1`` when
        nothing was displaced.  Only call after :meth:`probe` missed."""
        self.stats.misses += 1
        return self._insert(block, write)

    def access(self, block: int, write: bool) -> AccessResult:
        """Access ``block``; on miss, fill it, evicting a victim if needed."""
        if self.probe(block, write):
            return _HIT
        self.stats.misses += 1
        evicted, evicted_dirty = self._insert(block, write)
        if evicted < 0:
            return _MISS_NO_EVICT
        return AccessResult(False, evicted, evicted_dirty)

    def fill(self, block: int, dirty: bool = False) -> AccessResult:
        """Insert ``block`` without counting a demand access (used by
        victim-fill style operations); returns eviction info.

        Evictions it causes *are* counted (the displaced victim really
        leaves the cache); only the demand-side hit/miss counters stay
        untouched.
        """
        s = block & self._set_mask
        way = self._map[s].get(block)
        if way is not None:
            if dirty:
                self._dirty[s][way] = True
            self._repl[s].touch(way)
            return _HIT
        evicted, evicted_dirty = self._insert(block, dirty)
        if evicted < 0:
            return _MISS_NO_EVICT
        return AccessResult(False, evicted, evicted_dirty)

    # --- invalidation / flushing ---

    def make_clean(self, block: int) -> bool:
        """Clear the dirty bit of ``block`` (coherence downgrade M->S);
        returns whether the block was present."""
        s = block & self._set_mask
        way = self._map[s].get(block)
        if way is None:
            return False
        self._dirty[s][way] = False
        return True

    def invalidate(self, block: int) -> tuple[bool, bool]:
        """Remove ``block`` if present; returns ``(present, was_dirty)``."""
        s = block & self._set_mask
        way = self._map[s].pop(block, None)
        if way is None:
            return False, False
        dirty = self._dirty[s][way]
        self._ways[s][way] = None
        self._dirty[s][way] = False
        self._occupancy -= 1
        self.stats.invalidations += 1
        if self._where is not None:
            self._unmask((block,))
        return True, dirty

    def flush_blocks_collect(self, blocks) -> list[tuple[int, bool]]:
        """Invalidate every block in ``blocks`` that is resident and count
        them in ``flushed_blocks``; returns the removed ``(block, dirty)``
        pairs so the caller can perform the dirty writebacks."""
        removed: list[tuple[int, bool]] = []
        append = removed.append
        smaps = self._map
        ways = self._ways
        dirties = self._dirty
        mask = self._set_mask
        # invalidate() inlined: flushes sweep whole regions, so this loop
        # runs tens of thousands of times per ISA flush-heavy workload.
        for block in blocks:
            s = block & mask
            way = smaps[s].pop(block, None)
            if way is None:
                continue
            drow = dirties[s]
            append((block, drow[way]))
            ways[s][way] = None
            drow[way] = False
        if self._where is not None:
            self._unmask([block for block, _ in removed])
        n = len(removed)
        self._occupancy -= n
        st = self.stats
        st.invalidations += n
        # invalidate() counted these in invalidations too; keep both views.
        st.flushed_blocks += n
        return removed

    def _unmask(self, blocks) -> None:
        """Clear this bank's bit in the residency mask for ``blocks``, each
        of which this bank held until now (the hot-path fill inlines it)."""
        where, bit = self._where, self._bit
        for block in blocks:
            held = where[block] ^ bit
            if held:
                where[block] = held
            else:
                del where[block]

    def flush_blocks(self, blocks) -> tuple[int, int]:
        """Invalidate every block in ``blocks`` that is resident.

        Returns ``(flushed, dirty_flushed)`` — the dirty count is the number
        of writebacks the flush transaction must perform.
        """
        removed = self.flush_blocks_collect(blocks)
        return len(removed), sum(1 for _, dirty in removed if dirty)

    def clear(self) -> None:
        """Drop all contents and reset replacement state (not stats)."""
        if self._where is not None:
            for smap in self._map:
                self._unmask(smap)
        for s in range(self.num_sets):
            self._map[s].clear()
            self._ways[s] = [None] * self.assoc
            self._dirty[s] = [False] * self.assoc
            self._repl[s].reset()
        self._occupancy = 0

    # --- checkpoint/restore ---

    def state_dict(self) -> dict:
        """Full mutable state (tags, dirty bits, replacement trees, stats)
        as nested primitives; geometry is excluded — it is rebuilt from the
        configuration and validated on load."""
        return {
            "ways": [
                [-1 if b is None else b for b in ways] for ways in self._ways
            ],
            "dirty": [list(row) for row in self._dirty],
            "repl": [r.state_dict() for r in self._repl],
            "stats": asdict(self.stats),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output into this (same-geometry) bank."""
        ways = state["ways"]
        dirty = state["dirty"]
        if len(ways) != self.num_sets or len(dirty) != self.num_sets:
            raise ValueError(
                f"{self.name or 'bank'}: snapshot has {len(ways)} sets, "
                f"bank has {self.num_sets}"
            )
        occupancy = 0
        for s in range(self.num_sets):
            row = ways[s]
            if len(row) != self.assoc:
                raise ValueError(
                    f"{self.name or 'bank'} set {s}: snapshot has "
                    f"{len(row)} ways, bank has {self.assoc}"
                )
            self._ways[s] = [None if b < 0 else b for b in row]
            self._dirty[s] = [bool(d) for d in dirty[s]]
            smap = {block: way for way, block in enumerate(row) if block >= 0}
            self._map[s] = smap
            occupancy += len(smap)
            self._repl[s].load_state_dict(state["repl"][s])
        self._occupancy = occupancy
        self.stats = BankStats(**state["stats"])


_HIT = AccessResult(True)
_MISS_NO_EVICT = AccessResult(False)
