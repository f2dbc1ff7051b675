"""Shared fixtures: tiny machine configurations that keep unit tests fast."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import LatencyConfig, SystemConfig
from repro.mem.address import AddressMap
from repro.noc.topology import Mesh
from repro.scenario import MachineSpec, Scenario


def tiny_config(**overrides) -> SystemConfig:
    """A 16-tile machine with very small caches (fast to fill/evict)."""
    base = SystemConfig(
        l1_bytes=1024,  # 16 blocks, 8-way -> 2 sets
        llc_bank_bytes=4096,  # 64 blocks/bank
        page_bytes=512,
        nondep_blocks_per_task=0,
    )
    return replace(base, **overrides) if overrides else base


def run_of(workload: str, policy: str, *, scale: int = 64,
           mesh: tuple[int, int] | None = None, **fields) -> Scenario:
    """A run scenario of one cell on a ``1/scale`` machine (``mesh`` a
    ``(width, height)`` pair; clusters stay 2x2), as service tests submit."""
    width, height = mesh or (4, 4)
    return Scenario(
        name=f"{workload}-{policy}", workload=workload, policy=policy,
        machine=MachineSpec(scale=scale, mesh_width=width,
                            mesh_height=height),
        **fields,
    )


def sweep_of(workloads, policies, *, scale: int = 64, **fields) -> Scenario:
    """A sweep scenario of the ``workloads`` x ``policies`` grid."""
    return Scenario(
        name="sweep", workloads=tuple(workloads), policies=tuple(policies),
        machine=MachineSpec(scale=scale), **fields,
    )


@pytest.fixture
def cfg() -> SystemConfig:
    return tiny_config()


@pytest.fixture
def amap(cfg) -> AddressMap:
    return AddressMap(cfg.block_bytes, cfg.page_bytes, cfg.physical_address_bits)


@pytest.fixture
def mesh(cfg) -> Mesh:
    return Mesh(cfg.mesh_width, cfg.mesh_height, cfg.cluster_width, cfg.cluster_height)


@pytest.fixture
def latency() -> LatencyConfig:
    return LatencyConfig()
