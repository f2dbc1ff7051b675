#!/usr/bin/env python
"""Ablation: RRT lookup latency and RRT capacity (paper Section V-E).

Sweeps the RRT lookup latency from 0 (ideal) to 4 cycles and the RRT
capacity from 8 to 64 entries, showing that (a) the 1-cycle design costs
almost nothing over ideal, and (b) 64 entries are comfortably enough —
but *small* RRTs degrade replication-heavy benchmarks toward S-NUCA
because dropped registrations fall back to address interleaving.

Run:  python examples/rrt_sensitivity.py
"""

from dataclasses import replace

from repro.api import Session
from repro.config import scaled_config
from repro.stats.report import format_table

WORKLOAD = "lu"  # the most RRT-hungry benchmark (replicated panels)
SCALE = 1 / 256  # quick ablation scale


def main() -> None:
    cfg = scaled_config(SCALE)
    base = Session(cfg).run(WORKLOAD, "snuca").makespan

    rows = []
    for cycles in (0, 1, 2, 3, 4):
        r = Session(cfg).run(WORKLOAD, "tdnuca", rrt_lookup_cycles=cycles)
        rows.append([f"{cycles}", f"{base / r.makespan:.3f}x"])
    print(
        format_table(
            ["RRT lookup cycles", "TD-NUCA speedup vs S-NUCA"],
            rows,
            f"{WORKLOAD}: RRT latency sensitivity (Section V-E)",
        )
    )

    print()
    rows = []
    for entries in (8, 16, 32, 64):
        r = Session(replace(cfg, rrt_entries=entries)).run(WORKLOAD, "tdnuca")
        rows.append(
            [
                f"{entries}",
                f"{base / r.makespan:.3f}x",
                f"{r.runtime.mean_rrt_occupancy:.1f}",
                f"{r.runtime.occupancy_max}",
            ]
        )
    print(
        format_table(
            ["RRT entries", "speedup", "mean occupancy", "max occupancy"],
            rows,
            f"{WORKLOAD}: RRT capacity ablation",
        )
    )
    print(
        "\nNote: dropped registrations (full RRT) are not errors — those "
        "ranges simply fall back to S-NUCA interleaving (Section III-B2)."
    )


if __name__ == "__main__":
    main()
