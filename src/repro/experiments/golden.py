"""Golden stats-equivalence snapshots.

The per-reference hot path is aggressively flattened (batched counters,
allocation-free probes, precomputed geometry — see DESIGN.md), and the
contract for every such optimization is *bit-identical statistics*: the
full :class:`repro.sim.machine.MachineStats` of a small run must not move
by a single count.  This module defines the canonical snapshot form, the
matrix of (workload, policy, fault-spec) cases — every policy, plus
fault-injected runs because ``fail_bank``/``fail_link`` mutate the
precomputed geometry — and the runner shared by the committed snapshots
under ``tests/golden/`` and ``scripts/update_golden_stats.py``.

Floats (energy picojoules, hit ratios, mean NUCA distance) are derived
from integer counters through fixed arithmetic, so exact equality is the
correct comparison; JSON round-trips Python floats losslessly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.config import SystemConfig, scaled_config

__all__ = [
    "GOLDEN_SCALE",
    "GOLDEN_CASES",
    "PAPER_GOLDEN_CASES",
    "GoldenCase",
    "canonical_stats",
    "run_case",
]

#: scale the snapshots run at — small enough that the whole matrix stays
#: test-suite friendly, large enough that every path (evictions, flushes,
#: coherence, bypasses) is exercised.
GOLDEN_SCALE = 1.0 / 1024.0


@dataclass(frozen=True)
class GoldenCase:
    """One snapshot: a workload under a policy, optionally with faults.

    ``mesh`` is ``None`` for the paper's 4x4 geometry; a ``(width, height)``
    pair pins a scale-out machine instead (per-mesh latency table applied,
    clusters stay 2x2).
    """

    workload: str
    policy: str
    fault_spec: str = ""
    seed: int = 0
    mesh: tuple[int, int] | None = None

    @property
    def case_id(self) -> str:
        tag = f"{self.workload}-{self.policy}"
        if self.mesh is not None:
            tag += f"-{self.mesh[0]}x{self.mesh[1]}"
        if self.fault_spec:
            tag += "-faulted"
        return tag

    def config(self) -> SystemConfig:
        cfg = scaled_config(GOLDEN_SCALE)
        if self.mesh is not None:
            from repro.sim.latency import latency_for_mesh

            width, height = self.mesh
            cfg = replace(
                cfg,
                mesh_width=width,
                mesh_height=height,
                latency=latency_for_mesh(width, height),
            )
        if self.fault_spec:
            cfg = replace(cfg, fault_spec=self.fault_spec)
        return cfg


_ALL_POLICIES = (
    "snuca",
    "rnuca",
    "dnuca",
    "tdnuca",
    "tdnuca-bypass-only",
    "tdnuca-noisa",
)
_GOLDEN_WORKLOADS = ("kmeans", "jacobi", "histo")

GOLDEN_CASES: tuple[GoldenCase, ...] = tuple(
    GoldenCase(wl, pol) for wl in _GOLDEN_WORKLOADS for pol in _ALL_POLICIES
) + (
    # Fault-injected runs: bank/link failures rewrite the policy maps and
    # the mesh distance matrix mid-run, so the precomputed-geometry paths
    # must stay exact under recomputation too.
    GoldenCase("kmeans", "tdnuca", "bank:3@task=2,link:1-2@task=4"),
    GoldenCase("kmeans", "snuca", "bank:5@task=0"),
    GoldenCase("jacobi", "rnuca", "link:5-6@task=3"),
    GoldenCase("jacobi", "dnuca", "bank:2@task=1,dram:transient:p=0.02:retries=4"),
    # Scale-out cells: an 8x8 mesh exercises the 64-core latency band, the
    # wider interleave masks and 16 replication clusters — pinned under
    # both kernels so scale-out never drifts from the reference model.
    GoldenCase("kmeans", "tdnuca", mesh=(8, 8)),
    GoldenCase("jacobi", "snuca", mesh=(8, 8)),
)

#: The remaining Table-II benchmarks under TD-NUCA, the cells whose
#: runtime path (register/invalidate/flush walks) is the busiest.  Only the
#: stats-equivalence suite replays them: gauss/tdnuca alone takes seconds a
#: run, too slow for the chaos and resume suites that iterate
#: :data:`GOLDEN_CASES`.
PAPER_GOLDEN_CASES: tuple[GoldenCase, ...] = tuple(
    GoldenCase(wl, "tdnuca") for wl in ("gauss", "knn", "lu", "md5", "redblack")
)


def _bank_stats_dict(bs) -> dict[str, int]:
    return {
        "hits": bs.hits,
        "misses": bs.misses,
        "read_hits": bs.read_hits,
        "write_hits": bs.write_hits,
        "evictions": bs.evictions,
        "dirty_evictions": bs.dirty_evictions,
        "invalidations": bs.invalidations,
        "flushed_blocks": bs.flushed_blocks,
    }


def canonical_stats(result) -> dict[str, Any]:
    """Flatten one :class:`ExperimentResult` into the snapshot dict.

    Everything the paper's figures consume is covered: demand hit/miss
    counters, per-class NoC bytes, flit-hops, NUCA distance sums, the
    energy breakdown, DRAM traffic, TLB behaviour, the makespan, and the
    degraded-mode fault accounting when present.
    """
    m = result.machine
    traffic = m.traffic
    out: dict[str, Any] = {
        "policy": m.policy,
        "llc": _bank_stats_dict(m.llc),
        "l1": _bank_stats_dict(m.l1),
        "traffic": {
            "router_bytes": traffic.router_bytes,
            "flit_hops": traffic.flit_hops,
            "messages": traffic.messages,
            "nuca_distance_sum": traffic.nuca_distance_sum,
            "nuca_distance_count": traffic.nuca_distance_count,
            "bytes_by_class": {
                cls.name: nbytes for cls, nbytes in sorted(
                    traffic.bytes_by_class.items(), key=lambda kv: kv[0].name
                )
            },
        },
        "energy_pj": {
            "llc": m.energy.llc,
            "noc": m.energy.noc,
            "dram": m.energy.dram,
            "l1": m.energy.l1,
            "rrt": m.energy.rrt,
        },
        "tlb": {
            "hits": m.tlb.hits,
            "misses": m.tlb.misses,
        },
        "dram_reads": m.dram_reads,
        "dram_writes": m.dram_writes,
        "llc_accesses": m.llc_accesses,
        "llc_hit_ratio": m.llc_hit_ratio,
        "mean_nuca_distance": m.mean_nuca_distance,
        "router_bytes": m.router_bytes,
        "bypassed_accesses": m.bypassed_accesses,
        "makespan_cycles": result.execution.makespan_cycles,
        "tasks_executed": result.execution.tasks_executed,
        "unique_blocks": result.unique_blocks,
    }
    if m.faults is not None:
        f = m.faults
        out["faults"] = {
            "banks_failed": f.banks_failed,
            "links_failed": f.links_failed,
            "blocks_lost": f.blocks_lost,
            "dirty_blocks_lost": f.dirty_blocks_lost,
            "l1_copies_dropped": f.l1_copies_dropped,
            "rrt_entries_dropped": f.rrt_entries_dropped,
            "dead_bank_redirects": f.dead_bank_redirects,
            "dram_transient_errors": f.dram_transient_errors,
            "dram_retries": f.dram_retries,
            "dram_retry_cycles": f.dram_retry_cycles,
            "mean_hop_inflation": f.mean_hop_inflation,
        }
    return out


def run_case(case: GoldenCase) -> dict[str, Any]:
    """Execute one golden case and return its canonical snapshot.

    The snapshots are the cross-kernel equivalence gate: under every
    ``REPRO_KERNEL`` the case must reproduce them byte-identically.
    """
    from repro.api import _run_one

    result = _run_one(case.workload, case.policy, case.config(), seed=case.seed)
    return canonical_stats(result)
