"""NUCA policy interface.

A policy resolves ``(core, physical block)`` to an LLC bank — or to
:data:`BYPASS` — and may request cache flushes *before* an access proceeds
(R-NUCA page reclassification does this; TD-NUCA performs its flushes from
the runtime side instead).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

__all__ = ["BYPASS", "FlushAction", "NucaPolicy"]

#: sentinel bank id meaning "do not allocate in the LLC; go to memory".
BYPASS = -1


@dataclass(frozen=True)
class FlushAction:
    """A flush the machine must perform before the triggering access.

    ``blocks`` are physical block numbers.  ``l1_cores`` lists cores whose
    private caches must drop the blocks; ``llc_banks`` lists banks that must
    drop them.  Dirty copies are written back toward memory.
    """

    blocks: tuple[int, ...]
    l1_cores: tuple[int, ...] = ()
    llc_banks: tuple[int, ...] = ()
    reason: str = ""


@dataclass
class PolicyStats:
    """Counters every policy keeps (extended by subclasses)."""

    bypasses: int = 0
    local_bank_hits: int = 0  # resolutions to the requesting core's bank
    resolutions: int = 0
    #: resolutions redirected away from a fault-disabled bank.
    dead_bank_redirects: int = 0


class NucaPolicy(ABC):
    """Strategy object consulted on every L1 miss / writeback.

    Every policy supports graceful degradation under LLC bank failures:
    :meth:`disable_bank` marks a bank dead, and any resolution that lands
    on it is deterministically remapped (in :meth:`_count`) to one of the
    surviving banks, spread by the block number so the dead bank's share
    of the address space interleaves across the survivors.
    """

    #: human-readable policy name used in reports.
    name: str = "base"
    #: extra cycles the resolution adds to an L1 miss (TD-NUCA: RRT latency).
    lookup_cycles: int = 0
    #: total LLC banks the policy places over; subclasses set this so the
    #: base class can compute the surviving-bank list on failures.
    total_banks: int = 0
    #: whether :meth:`classify_pages` does anything; the machine builds a
    #: task's page list for it only when it does.
    classifies_pages: bool = False

    def __init__(self) -> None:
        self.stats = PolicyStats()
        self._dead_banks: set[int] = set()
        self._alive_banks: list[int] = []

    @abstractmethod
    def bank_for(self, core: int, block: int, write: bool) -> int:
        """LLC bank serving ``block`` for ``core`` (or :data:`BYPASS`)."""

    # --- fault injection ---

    @property
    def dead_banks(self) -> frozenset[int]:
        return frozenset(self._dead_banks)

    def disable_bank(self, bank: int) -> None:
        """Remap placement around ``bank`` from now on.

        Raises ``ValueError`` for an unknown bank or when no alive bank
        would remain (a chip with zero LLC capacity cannot degrade
        gracefully — it is simply broken).
        """
        if not 0 <= bank < self.total_banks:
            raise ValueError(
                f"bank {bank} out of range [0, {self.total_banks})"
            )
        if bank in self._dead_banks:
            raise ValueError(f"bank {bank} is already disabled")
        if len(self._dead_banks) + 1 >= self.total_banks:
            raise ValueError("cannot disable the last alive bank")
        self._dead_banks.add(bank)
        self._alive_banks = [
            b for b in range(self.total_banks) if b not in self._dead_banks
        ]

    def pre_access(self, core: int, block: int, write: bool) -> FlushAction | None:
        """Hook called before resolving a demand access; may return a flush
        (page reclassification).  Default: no action."""
        return None

    def classify_pages(self, core: int, pages, wrote) -> list[FlushAction]:
        """Batch classification hook called once per task trace with the
        unique (physical) pages the trace touches and whether each is
        written.  R-NUCA overrides this to run its OS page classifier;
        the default does nothing."""
        return []

    # --- checkpoint/restore ---

    def state_dict(self) -> dict:
        """Base counters plus the dead-bank set.  Subclasses with extra
        mutable state extend the dict via :meth:`_extra_state` hooks."""
        from dataclasses import asdict

        return {
            "stats": asdict(self.stats),
            "dead_banks": sorted(self._dead_banks),
            "extra": self._extra_state(),
        }

    def load_state_dict(self, state: dict) -> None:
        self.stats = PolicyStats(**state["stats"])
        self._dead_banks = {int(b) for b in state["dead_banks"]}
        self._alive_banks = (
            [b for b in range(self.total_banks) if b not in self._dead_banks]
            if self._dead_banks
            else []
        )
        self._load_extra_state(state["extra"])

    def _extra_state(self) -> dict:
        """Subclass hook: additional mutable state to checkpoint."""
        return {}

    def _load_extra_state(self, extra: dict) -> None:
        if extra:
            raise ValueError(f"policy {self.name} cannot load extra state")

    def _count(self, core: int, bank: int, block: int = 0) -> int:
        """Record a resolution in the stats and return ``bank``, remapping
        it first if fault injection disabled that bank."""
        if self._dead_banks and bank >= 0 and bank in self._dead_banks:
            alive = self._alive_banks
            bank = alive[block % len(alive)]
            self.stats.dead_bank_redirects += 1
        self.stats.resolutions += 1
        if bank == BYPASS:
            self.stats.bypasses += 1
        elif bank == core:
            self.stats.local_bank_hits += 1
        return bank
