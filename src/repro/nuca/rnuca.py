"""Reactive NUCA, augmented with shared read-only data replication.

Placement rules (Sections II-B and V of the paper):

* **private pages** — all blocks go to the owning core's local LLC bank;
* **shared pages** — blocks are address-interleaved across all banks
  (identical to S-NUCA);
* **shared read-only pages** — blocks are replicated with rotational
  interleaving: each cluster can hold its own copy, and an access is served
  by the bank the block rotates to inside the accessing core's cluster.
  (The original R-NUCA only replicates instruction pages; the paper's
  evaluation — and therefore this class — extends replication to read-only
  *data* pages.)

Reclassifications require flushes: private→shared flushes the page from the
former owner's L1 and local bank; shared-RO→shared flushes every replica
from all caches.  Both are returned as :class:`FlushAction` for the machine
to execute (modelling the OS/TLB-shootdown cost path).
"""

from __future__ import annotations

from repro.mem.address import AddressMap
from repro.noc.topology import Mesh
from repro.nuca.base import FlushAction, NucaPolicy
from repro.nuca.classifier import PageClass, PageClassifier
from repro.nuca.rotational import rotational_bank

__all__ = ["RNuca"]


class RNuca(NucaPolicy):
    """OS-driven Reactive NUCA with read-only data replication."""

    name = "R-NUCA"
    classifies_pages = True

    def __init__(self, mesh: Mesh, amap: AddressMap) -> None:
        super().__init__()
        if mesh.num_tiles & (mesh.num_tiles - 1):
            raise ValueError("R-NUCA interleaving needs a power-of-two tile count")
        self.mesh = mesh
        self.amap = amap
        self.classifier = PageClassifier()
        self.total_banks = mesh.num_tiles
        self._bank_mask = mesh.num_tiles - 1
        self._page_block_shift = amap.page_shift - amap.block_shift

    # --- helpers ---

    def _page_of_block(self, block: int) -> int:
        return block >> self._page_block_shift

    def _page_blocks(self, page: int) -> tuple[int, ...]:
        base = page << self._page_block_shift
        return tuple(range(base, base + self.amap.blocks_per_page))

    # --- NucaPolicy interface ---

    def pre_access(self, core: int, block: int, write: bool) -> FlushAction | None:
        page = self._page_of_block(block)
        transition = self.classifier.access(core, page, write)
        if transition is None:
            return None
        return self._transition_flush(transition)

    def classify_pages(self, core: int, pages, wrote) -> list[FlushAction]:
        """Run the OS classifier over a task's unique pages (reads first,
        then writes, approximating in-task ordering); returns the flushes
        the reclassifications require."""
        actions: list[FlushAction] = []
        for page, w in zip(pages, wrote):
            page = int(page)
            transition = self.classifier.access(core, page, False)
            if transition is not None:
                actions.append(self._transition_flush(transition))
            if w:
                transition = self.classifier.access(core, page, True)
                if transition is not None:
                    actions.append(self._transition_flush(transition))
        return actions

    def _transition_flush(self, transition) -> FlushAction:
        blocks = self._page_blocks(transition.page)
        if transition.old is PageClass.PRIVATE:
            owner = transition.flush_core
            assert owner is not None
            return FlushAction(
                blocks, l1_cores=(owner,), llc_banks=(owner,), reason="private->shared"
            )
        all_tiles = tuple(range(self.mesh.num_tiles))
        return FlushAction(
            blocks, l1_cores=all_tiles, llc_banks=all_tiles, reason="read_only->shared"
        )

    def bank_for(self, core: int, block: int, write: bool) -> int:
        page = self._page_of_block(block)
        cls = self.classifier.classify(page)
        if cls is PageClass.PRIVATE:
            owner = self.classifier.owner(page)
            assert owner is not None
            return self._count(core, owner, block)
        if cls is PageClass.SHARED_RO:
            return self._count(core, rotational_bank(self.mesh, core, block), block)
        # SHARED or untouched (cannot happen after pre_access): interleave.
        return self._count(core, block & self._bank_mask, block)

    # --- checkpoint/restore ---

    def _extra_state(self) -> dict:
        return {"classifier": self.classifier.state_dict()}

    def _load_extra_state(self, extra: dict) -> None:
        self.classifier.load_state_dict(extra["classifier"])
