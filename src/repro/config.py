"""System configuration for the TD-NUCA reproduction.

The defaults mirror Table I of the paper (16 out-of-order cores on a 4x4
mesh, 32 KB L1s, a 32 MB LLC banked 2 MB/core, MESI coherence, 64-entry
RRTs).  Because the reproduction is a trace-driven simulator rather than
gem5, full-paper capacities make single runs slow in pure Python; the
:func:`scaled_config` preset shrinks capacities and workload footprints by a
common factor while preserving the ratios that drive the paper's phenomena
(input-set size vs. LLC capacity, task size vs. bank size).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

__all__ = [
    "LatencyConfig",
    "EnergyConfig",
    "SystemConfig",
    "paper_config",
    "scaled_config",
]


@dataclass(frozen=True)
class LatencyConfig:
    """Access latencies in core cycles (Table I)."""

    l1_hit: int = 2
    llc_hit: int = 15
    #: cycles to detect an LLC miss (tag probe only; the full llc_hit
    #: latency includes the data array read that a miss never performs).
    llc_miss_probe: int = 5
    #: DRAM access on a row-buffer miss (activate + read).
    dram: int = 120
    #: DRAM access hitting the open row — bulk sequential sweeps (cache
    #: fills of streamed data, flush-then-refetch of whole dependencies)
    #: mostly pay this.
    dram_row_hit: int = 45
    #: DRAM row size in cache blocks (2 KB rows / 64 B blocks).
    dram_row_blocks: int = 32
    #: base backoff (cycles) before the first retry of a transient DRAM
    #: error; doubles per consecutive retry (fault injection only).
    dram_retry_backoff: int = 16
    noc_link: int = 1
    noc_router: int = 1
    #: average queueing cycles added per hop.  The paper's Garnet NoC
    #: simulates contention dynamically; a trace-driven model cannot, so a
    #: static load term stands in (calibrated so that distance costs match
    #: a moderately loaded mesh).  Set to 0 for unloaded-latency studies.
    noc_contention: int = 2
    rrt_lookup: int = 1
    tlb_lookup: int = 1
    #: cycles of non-memory work charged per memory reference (an IPC proxy
    #: for the 4-wide OoO core; keeps memory time dominant but not total).
    compute_per_access: int = 4

    def noc_per_hop(self) -> int:
        """Cycles per hop: link + router + average queueing."""
        return self.noc_link + self.noc_router + self.noc_contention


@dataclass(frozen=True)
class EnergyConfig:
    """Per-event dynamic energies in picojoules.

    Constants are CACTI-6.0-flavoured magnitudes at 22 nm; figures 13/14 are
    reported *normalized to S-NUCA*, so only the relative weighting between
    event classes matters for the reproduction.
    """

    llc_read: float = 250.0
    llc_write: float = 270.0
    llc_tag_probe: float = 40.0
    l1_access: float = 15.0
    noc_per_flit_hop: float = 12.0
    dram_access: float = 2400.0
    #: SRAM lookup energy; multiplied by :attr:`rrt_tcam_factor` to
    #: approximate a real TCAM implementation (paper Section V-E).
    rrt_sram_lookup: float = 1.0
    rrt_tcam_factor: float = 30.0
    flit_bytes: int = 16

    def rrt_lookup_energy(self) -> float:
        return self.rrt_sram_lookup * self.rrt_tcam_factor


@dataclass(frozen=True)
class SystemConfig:
    """Full machine description.

    The mesh is ``mesh_width`` x ``mesh_height`` tiles, one core + one L1 +
    one LLC bank per tile.  Clusters are the quadrants used by TD-NUCA's
    LLC Cluster Replication scheme and by R-NUCA's rotational interleaving.
    """

    # --- topology ---
    mesh_width: int = 4
    mesh_height: int = 4
    cluster_width: int = 2
    cluster_height: int = 2

    # --- memory geometry ---
    block_bytes: int = 64
    page_bytes: int = 4096
    physical_address_bits: int = 42

    # --- caches ---
    l1_bytes: int = 32 * 1024
    l1_assoc: int = 8
    llc_bank_bytes: int = 2 * 1024 * 1024
    llc_assoc: int = 16

    # --- TLB / RRT ---
    tlb_entries: int = 64
    rrt_entries: int = 64

    #: non-dependency traffic: cache blocks of runtime/stack data each task
    #: touches (read + write sweep).  Not covered by task dependencies, so
    #: every policy address-interleaves it; gives Fig. 3 its ~4% non-dep
    #: block fraction and keeps a FLOOR under TD-NUCA's LLC access counts.
    nondep_blocks_per_task: int = 28

    # --- timing and energy ---
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)

    #: scale factor applied by :func:`scaled_config`; 1.0 for paper sizes.
    capacity_scale: float = 1.0

    # --- fault injection and runtime checking ---
    #: fault schedule spec (see :mod:`repro.faults.schedule`); "" = no faults.
    fault_spec: str = ""
    #: run the invariant checker during execution (graceful-degradation
    #: proofs; small overhead).
    strict_invariants: bool = False
    #: tasks between full invariant sweeps in strict mode (cheap checks run
    #: every task; 1 = full sweep after every task).
    strict_check_interval: int = 16

    # ----- derived quantities -----

    @property
    def num_cores(self) -> int:
        return self.mesh_width * self.mesh_height

    @property
    def num_banks(self) -> int:
        return self.num_cores

    @property
    def num_clusters(self) -> int:
        return (self.mesh_width // self.cluster_width) * (
            self.mesh_height // self.cluster_height
        )

    @property
    def cluster_size(self) -> int:
        return self.cluster_width * self.cluster_height

    @property
    def llc_total_bytes(self) -> int:
        return self.llc_bank_bytes * self.num_banks

    @property
    def blocks_per_page(self) -> int:
        return self.page_bytes // self.block_bytes

    def validate(self) -> None:
        """Raise ``ValueError`` on any nonsensical configuration — called by
        :func:`repro.sim.machine.build_machine` and
        :class:`repro.api.Session` so bad configs fail with a clear message
        instead of a deep crash inside the machine."""
        if self.mesh_width <= 0 or self.mesh_height <= 0:
            raise ValueError(
                "mesh dimensions must be positive (a machine needs at least "
                "one core and one LLC bank)"
            )
        cores = self.num_cores
        if cores & (cores - 1):
            raise ValueError(
                f"total tile count must be a power of two for address "
                f"interleaving, got {self.mesh_width}x{self.mesh_height} = "
                f"{cores} tiles (use e.g. 4x4, 8x8, 8x16, 16x16)"
            )
        if cores > 1024:
            raise ValueError(
                f"mesh {self.mesh_width}x{self.mesh_height} has {cores} tiles; "
                "meshes beyond 1024 tiles are not calibrated (latency tables "
                "stop at the 256-core band and the trace-driven model has no "
                "validation data past that scale)"
            )
        if self.cluster_width <= 0 or self.cluster_height <= 0:
            raise ValueError("cluster dimensions must be positive")
        if self.mesh_width % self.cluster_width:
            raise ValueError(
                f"mesh_width ({self.mesh_width}) must be a multiple of "
                f"cluster_width ({self.cluster_width}); clusters must tile "
                "the mesh exactly"
            )
        if self.mesh_height % self.cluster_height:
            raise ValueError(
                f"mesh_height ({self.mesh_height}) must be a multiple of "
                f"cluster_height ({self.cluster_height}); clusters must tile "
                "the mesh exactly"
            )
        if self.cluster_size & (self.cluster_size - 1):
            raise ValueError(
                f"cluster size must be a power of two for rotational "
                f"interleaving, got {self.cluster_width}x{self.cluster_height}"
                f" = {self.cluster_size} tiles"
            )
        for name in ("block_bytes", "page_bytes", "l1_bytes", "llc_bank_bytes"):
            value = getattr(self, name)
            if value <= 0 or value & (value - 1):
                raise ValueError(f"{name} must be a positive power of two")
        if self.page_bytes % self.block_bytes:
            raise ValueError("page_bytes must be a multiple of block_bytes")
        if self.l1_assoc <= 0 or self.llc_assoc <= 0:
            raise ValueError("cache associativities must be positive")
        if self.l1_bytes < self.l1_assoc * self.block_bytes:
            raise ValueError(
                f"L1 ({self.l1_bytes} B) smaller than one set "
                f"({self.l1_assoc}-way x {self.block_bytes} B blocks)"
            )
        if self.llc_bank_bytes < self.llc_assoc * self.block_bytes:
            raise ValueError(
                f"LLC bank ({self.llc_bank_bytes} B) smaller than one set "
                f"({self.llc_assoc}-way x {self.block_bytes} B blocks)"
            )
        if self.rrt_entries <= 0 or self.tlb_entries <= 0:
            raise ValueError("rrt_entries and tlb_entries must be positive")
        if self.nondep_blocks_per_task < 0:
            raise ValueError("nondep_blocks_per_task must be non-negative")
        if self.physical_address_bits <= 0:
            raise ValueError("physical_address_bits must be positive")
        if self.strict_check_interval <= 0:
            raise ValueError("strict_check_interval must be positive")
        if self.fault_spec:
            from repro.faults.schedule import parse_fault_spec

            schedule = parse_fault_spec(self.fault_spec)  # raises on bad spec
            schedule.validate_against(self.num_banks, self.num_cores)


def paper_config() -> SystemConfig:
    """The exact Table-I configuration."""
    cfg = SystemConfig()
    cfg.validate()
    return cfg


def _pow2_at_most(value: float, minimum: int) -> int:
    """Largest power of two <= value, floored at ``minimum`` (a power of 2)."""
    if value <= minimum:
        return minimum
    return 1 << int(math.floor(math.log2(value)))


def scaled_config(factor: float = 1.0 / 64.0) -> SystemConfig:
    """Table-I configuration with cache capacities scaled by ``factor``.

    Blocks stay 64 B.  Pages scale by ``sqrt(factor)`` (floored at 512 B):
    page-granularity effects — OS reclassification flushes, first/last-page
    misclassification — must shrink with the data or they are inflated by
    ``1/factor`` relative to the paper.  The L1 is floored at 2 KB so it
    still has multiple sets; associativities are unchanged.  Workload
    generators consume :attr:`SystemConfig.capacity_scale` to shrink their
    footprints by ``factor``, preserving Table-II ratios.
    """
    if not 0 < factor <= 1:
        raise ValueError("scale factor must be in (0, 1]")
    base = SystemConfig()
    cfg = replace(
        base,
        l1_bytes=_pow2_at_most(base.l1_bytes * factor, 2048),
        llc_bank_bytes=_pow2_at_most(base.llc_bank_bytes * factor, 16 * 1024),
        page_bytes=_pow2_at_most(base.page_bytes * math.sqrt(factor), 512),
        capacity_scale=factor,
    )
    cfg.validate()
    return cfg
