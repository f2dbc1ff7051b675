"""Banked NUCA last-level cache.

One :class:`~repro.cache.bank.CacheBank` per tile (paper: 2 MB/core,
16-way, inclusive).  Which bank serves a given access is decided *outside*
this class by the active NUCA policy (S-NUCA interleaving, R-NUCA
classification, or TD-NUCA's RRT); the LLC itself only owns per-bank state
and aggregate statistics.

Replication is naturally expressed here: the same physical block may be
resident in several banks at once (TD-NUCA cluster replicas, R-NUCA
rotational-interleaving replicas).  Coherence for replicas is enforced by
the runtime/OS flush operations, mirroring the paper.

Which banks hold a block is answered from a residency mask,
``{block: bit mask of the banks holding it}`` with bit ``b`` for bank
``b``: the presence bits the coherence directory keeps for the L1s, kept
here for the banks.  It is derived state.  Every bank updates it where it
gains or loses a block (the fused kernel's inline fills too), no snapshot
stores it, and :meth:`NucaLLC.load_state_dict` rebuilds it.
``faults/invariants.py`` checks it against the banks' contents.
"""

from __future__ import annotations

from repro.cache.bank import AccessResult, BankStats, CacheBank

__all__ = ["NucaLLC"]


class NucaLLC:
    """Array of per-tile LLC banks."""

    def __init__(
        self,
        num_banks: int,
        bank_bytes: int,
        assoc: int,
        block_bytes: int,
        replacement: str = "plru",
    ) -> None:
        if num_banks <= 0:
            raise ValueError("need at least one bank")
        self.block_bytes = block_bytes
        self.banks = [
            CacheBank(bank_bytes, assoc, block_bytes, replacement, f"llc.{b}")
            for b in range(num_banks)
        ]
        #: the residency mask; one entry per block resident in any bank.
        self._where: dict[int, int] = {}
        for b, bank in enumerate(self.banks):
            bank._where = self._where
            bank._bit = 1 << b
        self._dead: set[int] = set()

    @property
    def num_banks(self) -> int:
        return len(self.banks)

    @property
    def dead_banks(self) -> frozenset[int]:
        """Banks disabled by fault injection (empty and unreachable)."""
        return frozenset(self._dead)

    def kill_bank(self, bank: int) -> None:
        """Fault injection: drop the bank's contents and mark it dead.

        The caller (the machine) is responsible for the coherence fallout —
        back-invalidating orphaned L1 lines and remapping the policy; after
        this call any demand access reaching the bank is a simulator bug and
        raises.
        """
        if not 0 <= bank < len(self.banks):
            raise ValueError(f"bank {bank} out of range")
        if bank in self._dead:
            raise ValueError(f"bank {bank} is already dead")
        if len(self._dead) + 1 >= len(self.banks):
            raise ValueError("cannot disable the last alive LLC bank")
        self.banks[bank].clear()
        self._dead.add(bank)

    def access(self, bank: int, block: int, write: bool) -> AccessResult:
        """Demand access to ``block`` in ``bank``."""
        if self._dead and bank in self._dead:
            raise RuntimeError(
                f"access routed to dead LLC bank {bank}; policy remap failed"
            )
        return self.banks[bank].access(block, write)

    def contains(self, bank: int, block: int) -> bool:
        return self.banks[bank].contains(block)

    def banks_holding(self, block: int) -> list[int]:
        """All banks where ``block`` is currently resident (replicas)."""
        held = self._where.get(block, 0)
        return [b for b in range(len(self.banks)) if held >> b & 1]

    def any_bank_holds(self, block: int) -> bool:
        """Whether any bank holds ``block`` — the inclusion check on the
        eviction path."""
        return block in self._where

    def invalidate_everywhere(self, block: int) -> tuple[int, int]:
        """Remove ``block`` from every bank; returns (copies, dirty_copies)."""
        copies = dirty = 0
        for b in self.banks_holding(block):
            _, was_dirty = self.banks[b].invalidate(block)
            copies += 1
            if was_dirty:
                dirty += 1
        return copies, dirty

    def residency(self) -> dict[int, int]:
        """The residency mask recomputed from the banks' contents (what
        :attr:`_where` must equal)."""
        where: dict[int, int] = {}
        for bank in self.banks:
            bit = bank._bit
            for smap in bank._map:
                for block in smap:
                    where[block] = where.get(block, 0) | bit
        return where

    def flush_blocks(self, bank: int, blocks) -> tuple[int, int]:
        """Flush ``blocks`` from one bank; returns (flushed, dirty)."""
        return self.banks[bank].flush_blocks(blocks)

    def aggregate_stats(self) -> BankStats:
        total = BankStats()
        for b in self.banks:
            total.merge(b.stats)
        return total

    @property
    def occupancy(self) -> int:
        return sum(b.occupancy for b in self.banks)

    def clear(self) -> None:
        for b in self.banks:
            b.clear()

    # --- checkpoint/restore ---

    def state_dict(self) -> dict:
        return {
            "banks": [b.state_dict() for b in self.banks],
            "dead": sorted(self._dead),
        }

    def load_state_dict(self, state: dict) -> None:
        banks = state["banks"]
        if len(banks) != len(self.banks):
            raise ValueError(
                f"snapshot has {len(banks)} LLC banks, machine has "
                f"{len(self.banks)}"
            )
        for bank, bstate in zip(self.banks, banks):
            bank.load_state_dict(bstate)
        self._where.clear()  # in place: the banks share this dict
        self._where.update(self.residency())
        self._dead = {int(b) for b in state["dead"]}
