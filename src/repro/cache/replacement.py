"""Replacement policies for set-associative caches.

Two per-set policies are provided:

* :class:`TreePLRUState` — the tree pseudo-LRU used by the paper's L1 and
  LLC (Table I).  The tree is packed into a single integer of
  ``assoc - 1`` bits; node ``i`` has children ``2i+1`` / ``2i+2`` and a set
  bit means "the LRU side is the right subtree".
* :class:`LRUState` — true LRU, used in tests as a reference and available
  for ablation.

Both expose the same three operations on way indices: ``touch`` (on hit or
fill), ``victim`` (choose the way to evict) and ``reset``.
"""

from __future__ import annotations

__all__ = ["TreePLRUState", "LRUState", "make_replacement"]


def _check_assoc(assoc: int) -> None:
    if assoc <= 0 or assoc & (assoc - 1):
        raise ValueError("associativity must be a positive power of two")


def _touch_masks(assoc: int, way: int) -> tuple[int, int]:
    """(or_mask, and_mask) equivalent to walking ``way``'s tree path.

    The node sequence and directions a ``touch`` takes depend only on the
    way index, so the whole walk collapses to one OR (bits set toward the
    right subtree) and one AND (bits cleared toward the left subtree).
    """
    or_mask = 0
    and_mask = -1  # all ones
    node = 0
    half = assoc >> 1
    lo = 0
    levels = assoc.bit_length() - 1
    for _ in range(levels):
        if way < lo + half:
            or_mask |= 1 << node  # LRU side is right
            node = 2 * node + 1
        else:
            and_mask &= ~(1 << node)  # LRU side is left
            node = 2 * node + 2
            lo += half
        half >>= 1
    return or_mask, and_mask


def _victim_for_bits(assoc: int, bits: int) -> int:
    """Reference tree walk: LRU way designated by ``bits``."""
    node = 0
    way = 0
    half = assoc >> 1
    levels = assoc.bit_length() - 1
    for _ in range(levels):
        if bits >> node & 1:  # go right
            node = 2 * node + 2
            way += half
        else:
            node = 2 * node + 1
        half >>= 1
    return way


#: per-assoc (or_masks, and_masks, victim_table), built once and shared by
#: every set of every bank — the tables make touch/victim O(1) table hits
#: on the per-reference hot path.
_PLRU_TABLES: dict[int, tuple[list[int], list[int], list[int] | None]] = {}


#: largest associativity whose victim table (2^(assoc-1) entries) is
#: worth materializing; wider trees fall back to the explicit walk.
_VICTIM_TABLE_MAX_ASSOC = 16


def _victim_table(assoc: int) -> list[int]:
    """LRU way for every packed bit pattern, built a tree level at a time.

    Node bits are packed in heap order, so the nodes of each level sit
    above the bits of every level before it.  A table over the upper
    levels maps each of their patterns to the node reached on the next
    level; adding that level's ``width`` bits copies, for every such
    pattern, the column of outcomes of the one node it reaches.  The
    2^(assoc-1) entries are filled by slice assignment rather than one
    walk per pattern (same result as :func:`_victim_for_bits`).
    """
    table = [0]  # no bits yet: every pattern is at the root
    width = 1  # nodes on the level being added
    while width < assoc:
        # Reaching node p of this level, go right (to 2p+1) iff its bit is set.
        cols = [
            [2 * p + (high >> p & 1) for high in range(1 << width)]
            for p in range(width)
        ]
        step = len(table)
        grown = [0] * (step << width)
        for low, p in enumerate(table):
            grown[low::step] = cols[p]
        table = grown
        width *= 2
    return table


def _plru_tables(assoc: int) -> tuple[list[int], list[int], list[int] | None]:
    tables = _PLRU_TABLES.get(assoc)
    if tables is None:
        masks = [_touch_masks(assoc, way) for way in range(assoc)]
        or_masks = [m[0] for m in masks]
        and_masks = [m[1] for m in masks]
        victim_table = (
            _victim_table(assoc) if assoc <= _VICTIM_TABLE_MAX_ASSOC else None
        )
        tables = (or_masks, and_masks, victim_table)
        _PLRU_TABLES[assoc] = tables
    return tables


class TreePLRUState:
    """Tree pseudo-LRU over ``assoc`` ways (power of two).

    The tree is packed into ``assoc - 1`` bits, but the walks are
    precomputed: ``touch`` applies a per-way OR/AND mask pair and
    ``victim`` is a direct table lookup over the packed bits.  Both are
    bit-for-bit equivalent to the explicit tree walk (see
    ``tests/cache/test_replacement.py``).
    """

    __slots__ = ("assoc", "_bits", "_or", "_and", "_victim")

    def __init__(self, assoc: int) -> None:
        _check_assoc(assoc)
        self.assoc = assoc
        self._or, self._and, self._victim = _plru_tables(assoc)
        self._bits = 0

    def touch(self, way: int) -> None:
        """Mark ``way`` most-recently used: point every tree node on its
        path *away* from it."""
        self._bits = (self._bits | self._or[way]) & self._and[way]

    def victim(self) -> int:
        """Way index the tree currently designates least-recently used."""
        table = self._victim
        if table is not None:
            return table[self._bits]
        return _victim_for_bits(self.assoc, self._bits)

    def reset(self) -> None:
        self._bits = 0

    def state_dict(self) -> int:
        return self._bits

    def load_state_dict(self, state: int) -> None:
        self._bits = int(state)


class LRUState:
    """Exact LRU over ``assoc`` ways (reference implementation)."""

    __slots__ = ("assoc", "_order")

    def __init__(self, assoc: int) -> None:
        _check_assoc(assoc)
        self.assoc = assoc
        self._order: list[int] = list(range(assoc))  # front = LRU

    def touch(self, way: int) -> None:
        if not 0 <= way < self.assoc:
            raise ValueError("way out of range")
        self._order.remove(way)
        self._order.append(way)

    def victim(self) -> int:
        return self._order[0]

    def reset(self) -> None:
        self._order = list(range(self.assoc))

    def state_dict(self) -> list[int]:
        return list(self._order)

    def load_state_dict(self, state: list[int]) -> None:
        if sorted(state) != list(range(self.assoc)):
            raise ValueError("LRU order must be a permutation of the ways")
        self._order = [int(w) for w in state]


def make_replacement(kind: str, assoc: int):
    """Factory: ``"plru"`` or ``"lru"``."""
    if kind == "plru":
        return TreePLRUState(assoc)
    if kind == "lru":
        return LRUState(assoc)
    raise ValueError(f"unknown replacement policy {kind!r}")
