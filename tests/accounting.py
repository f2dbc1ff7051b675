"""Accounting identities of a canonical stats snapshot.

The goldens prove a run's statistics are unchanged, not that they add
up.  These identities tie together counters that separate code paths
maintain: both kernels batch their counters and apply them after the
loop, so a slip there breaks an identity even when the goldens are
regenerated.  They hold under every policy, kernel and fault schedule.
"""

from __future__ import annotations

from typing import Any

#: picojoules per L1 access (``SystemConfig.l1_access``).
L1_ACCESS_PJ = 15.0

#: a DRAM request is one 8-byte control message, answered by one data
#: message: a 64-byte block plus its header.
DRAM_DATA_PER_REQUEST = 9


def check_accounting(stats: dict[str, Any]) -> None:
    """Assert the nine identities on ``stats``, the dict
    :func:`repro.experiments.golden.canonical_stats` returns."""
    llc, l1, traffic = stats["llc"], stats["l1"], stats["traffic"]
    by_class = traffic["bytes_by_class"]
    assert stats["llc_accesses"] == llc["hits"] + llc["misses"]
    assert l1["hits"] == l1["read_hits"] + l1["write_hits"]
    assert llc["hits"] == llc["read_hits"] + llc["write_hits"]
    assert stats["llc_hit_ratio"] == (
        llc["hits"] / stats["llc_accesses"] if stats["llc_accesses"] else 0.0
    )
    count = traffic["nuca_distance_count"]
    assert stats["mean_nuca_distance"] == (
        traffic["nuca_distance_sum"] / count if count else 0.0
    )
    assert by_class.get("INVALIDATION", 0) == by_class.get("ACK", 0)
    assert by_class.get("DRAM_DATA", 0) == (
        DRAM_DATA_PER_REQUEST * by_class.get("DRAM_REQUEST", 0)
    )
    assert stats["router_bytes"] == traffic["router_bytes"]
    assert stats["energy_pj"]["l1"] == L1_ACCESS_PJ * (l1["hits"] + l1["misses"])
