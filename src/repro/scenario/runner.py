"""Executing multiprogrammed scenarios.

Every workload generator allocates from the same virtual base
(:class:`~repro.mem.allocator.VirtualAllocator` starts at 0x1000), so
co-scheduling two benchmarks naively violates
:func:`~repro.runtime.multiprog.merge_programs`'s disjointness contract.
:func:`rebase_program` gives each process its own virtual-address slice
(``pid * PID_ADDRESS_STRIDE`` — separate OS processes do not share
physical memory), and :func:`run_multiprog` wires the merged program
through :class:`~repro.runtime.multiprog.MultiProcessRuntime` exactly the
way :func:`repro.api._run_one` wires a single-process run, warmup
handling included.
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.mem.region import Region
from repro.runtime.task import AccessChunk, Dependency, Program
from repro.scenario.model import PID_ADDRESS_STRIDE, Scenario, ScenarioError

__all__ = ["rebase_program", "run_multiprog", "PID_ADDRESS_STRIDE"]


def rebase_program(program: Program, offset: int) -> Program:
    """Shift every region of ``program`` by ``offset`` bytes, in place.

    Regions are frozen, so each distinct ``(start, size, name)`` value is
    rebuilt exactly once and shared by every dependency and access chunk
    that referenced it — value-identical regions stay value-identical
    after the move, which is what the RRT's region-keyed bookkeeping
    requires.  Returns ``program`` for chaining.
    """
    if offset < 0:
        raise ValueError("rebase offset must be non-negative")
    if offset == 0:
        return program
    moved: dict[Region, Region] = {}

    def move(region: Region) -> Region:
        out = moved.get(region)
        if out is None:
            out = Region(region.start + offset, region.size, region.name)
            moved[region] = out
        return out

    for task in program.tasks:
        task.deps = tuple(
            Dependency(move(d.region), d.mode) for d in task.deps
        )
        if task.accesses:
            task.accesses = tuple(
                AccessChunk(move(c.region), c.write, c.passes, c.rmw)
                for c in task.accesses
            )
    return program


def run_multiprog(scenario: Scenario, cfg: SystemConfig | None = None, *,
                  observer=None):
    """Run a ``kind == "multiprog"`` scenario; returns the
    :class:`~repro.experiments.runner.ExperimentResult`.

    Each co-runner builds its workload at its own seed, is rebased into a
    disjoint address slice and merged round-robin; TD-NUCA policies run
    per-process runtimes over shared PID-tagged RRTs
    (:class:`~repro.runtime.multiprog.MultiProcessRuntime`), the baseline
    policies need no per-process state.  Statistics follow the paper's
    measurement window: warmup phases run, then all counters reset.
    """
    from repro.experiments.runner import ExperimentResult, build_runtime
    from repro.runtime import Executor, FifoScheduler
    from repro.runtime.multiprog import MultiProcessRuntime, merge_programs
    from repro.runtime.task import Program as _Program
    from repro.sim.machine import build_machine
    from repro.workloads.registry import get_workload

    if scenario.kind != "multiprog":
        raise ScenarioError(
            f"run_multiprog needs a multiprog scenario, got kind "
            f"{scenario.kind!r}",
            field="multiprog",
            source=scenario.source,
        )
    policy = scenario.policy
    if policy == "tdnuca-noisa":
        raise ScenarioError(
            "tdnuca-noisa has no PID-tagged RRT hardware to share; "
            "multiprog supports tdnuca, tdnuca-bypass-only and the "
            "baseline policies",
            field="policy",
            source=scenario.source,
        )
    cfg = cfg if cfg is not None else scenario.to_config()
    cfg.validate()

    programs: dict[int, Program] = {}
    labels: dict[int, str] = {}
    for i, co in enumerate(scenario.corunners):
        pid = i + 1
        wl = get_workload(co.workload)
        seed = co.seed if co.seed is not None else scenario.seed
        program = wl.build(cfg, seed)
        programs[pid] = rebase_program(program, pid * PID_ADDRESS_STRIDE)
        labels[pid] = wl.name
    merged = merge_programs(programs, name=scenario.name)

    machine = build_machine(cfg, policy, seed=scenario.seed)
    if observer is not None:
        observer.attach(machine)
    if policy in ("tdnuca", "tdnuca-bypass-only"):
        extension = MultiProcessRuntime(
            machine.mesh,
            machine.isa,
            pids=sorted(programs),
            bypass_only=policy == "tdnuca-bypass-only",
        )
    else:
        extension = build_runtime(machine, policy)
    # FIFO dispatch follows the merged round-robin creation order, so the
    # processes genuinely interleave on the cores.
    executor = Executor(
        machine, scheduler=FifoScheduler(), extension=extension,
        observer=observer,
    )

    if merged.warmup_phases:
        warmup = _Program(merged.name, merged.phases[: merged.warmup_phases])
        main = _Program(merged.name, merged.phases[merged.warmup_phases:])
        executor.run(warmup)
        machine.reset_stats()
        if isinstance(extension, MultiProcessRuntime):
            extension.reset_stats()
        exec_stats = executor.run(main)
    else:
        exec_stats = executor.run(merged)

    result = ExperimentResult(
        workload="+".join(labels[pid] for pid in sorted(labels)),
        policy=policy,
        machine=machine.collect_stats(),
        execution=exec_stats,
    )
    result.rnuca_census = machine.census.rnuca_census()
    result.unique_blocks = machine.census.unique_blocks
    if isinstance(extension, MultiProcessRuntime):
        result.isa = machine.isa.stats if machine.isa is not None else None
        result.extra["context_switches"] = extension.context_switches
        result.extra["per_pid"] = {
            pid: {
                "workload": labels[pid],
                "decisions": rt.stats.decisions,
                "bypass_decisions": rt.stats.bypass_decisions,
                "replicate_decisions": rt.stats.replicate_decisions,
                "local_decisions": rt.stats.local_decisions,
            }
            for pid, rt in sorted(extension.runtimes.items())
        }
    return result
