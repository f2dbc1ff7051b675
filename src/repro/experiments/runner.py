"""The experiment result record.

:class:`ExperimentResult` (every statistic one run produces) and
:func:`build_runtime` live here; the run logic itself lives in
:mod:`repro.api`, whose :class:`~repro.api.Session` facade is the way to
run simulations (``Session(cfg, seed=...).run(workload, policy)`` for
one cell, ``Session(cfg).suite(...)`` for a grid).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import SystemConfig, scaled_config
from repro.core.isa import ISAStats
from repro.runtime.executor import ExecutionStats
from repro.runtime.extensions import RuntimeExtension, TdNucaRuntime, TdNucaRuntimeStats
from repro.sim.machine import Machine, MachineStats
from repro.stats.counters import RNucaCensus

__all__ = ["ExperimentResult", "default_config"]

#: default scale for experiment sweeps: capacities and footprints at 1/64
#: of Table I/II, preserving their ratios.
DEFAULT_SCALE = 1.0 / 64.0


def default_config(scale: float = DEFAULT_SCALE) -> SystemConfig:
    return scaled_config(scale)


@dataclass
class ExperimentResult:
    """Everything measured from one (workload, policy) run."""

    workload: str
    policy: str
    machine: MachineStats
    execution: ExecutionStats
    #: Fig.-3 left bar: whole-run block sharing census.
    rnuca_census: RNucaCensus | None = None
    #: Fig.-3 right bar inputs: dependency usage records (TD-NUCA runs).
    dependency_categories: dict[str, list] | None = None
    runtime: TdNucaRuntimeStats | None = None
    isa: ISAStats | None = None
    #: unique blocks touched over the run.
    unique_blocks: int = 0
    #: blocks covered by task-dependency regions, by Fig.-3 category.
    extra: dict = field(default_factory=dict)

    @property
    def makespan(self) -> int:
        return self.execution.makespan_cycles


def build_runtime(machine: Machine, policy: str) -> RuntimeExtension:
    """The runtime extension matching a policy variant."""
    if policy == "tdnuca":
        return TdNucaRuntime(machine.mesh, machine.isa)
    if policy == "tdnuca-bypass-only":
        return TdNucaRuntime(machine.mesh, machine.isa, bypass_only=True)
    if policy == "tdnuca-noisa":
        return TdNucaRuntime(machine.mesh, machine.isa, execute_isa=False)
    return RuntimeExtension()
