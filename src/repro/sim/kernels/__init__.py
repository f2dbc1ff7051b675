"""Pluggable simulation kernels for the per-reference hot path.

A :class:`SimKernel` owns the inner loop of :meth:`Machine._run_blocks`:
given one task's translated block trace it drives the L1s, the NUCA LLC,
the directory, DRAM and all the batched stat/traffic accounting.  Two
implementations exist:

``reference``
    The flat single-reference interpreter (PR 3), extracted verbatim from
    ``Machine._run_blocks``.  Always available, always exact; every other
    backend is defined as "byte-identical MachineStats to reference".

``vector``
    A fused, specialization-heavy interpreter with the reference loop's
    event order (``vector.py``): it inlines the per-event method calls,
    memoizes the last-hit RRT range and derives counters at commit time.
    It runs every task whatever its length — at full scale it beat a
    numpy-batched phased engine on every measured cell (DESIGN.md §13) —
    and dispatches per task, deferring to the reference loop whenever the
    machine is in a state it does not model (DRAM transients, dead banks,
    non-PLRU replacement, D-NUCA, policies other than TD-NUCA/S-NUCA).

``verify``
    A debug harness that runs *both* kernels on every task and raises
    :class:`KernelMismatchError` on the first divergence (chaos-testable
    through the ``kernel.dispatch.mismatch`` failpoint).

Selection happens here and nowhere else.  Every machine calls
:func:`make_kernel` once, when it is built, and gets the kernel the
``REPRO_KERNEL`` environment variable names, or ``auto`` (the fused
``vector`` engine) when it is unset.  No run description (config,
scenario, session, CLI flag or service body) carries a kernel, since no
kernel changes a result: the golden snapshot suite is the equivalence
gate (DESIGN.md §13).  A forked attempt gets its launcher's
``REPRO_KERNEL`` through :func:`repro.template.launch`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

__all__ = [
    "KERNEL_NAMES",
    "KernelMismatchError",
    "KernelStats",
    "SimKernel",
    "make_kernel",
    "resolve_kernel_name",
]

#: accepted values of ``REPRO_KERNEL``.
KERNEL_NAMES = ("auto", "reference", "vector", "verify")

#: the environment variable that selects the kernel of every machine.
KERNEL_ENV = "REPRO_KERNEL"


class KernelMismatchError(AssertionError):
    """``verify`` mode found the two kernels disagreeing on a task."""


@dataclass
class KernelStats:
    """Dispatch accounting, kept on the kernel object (never inside
    ``MachineStats`` — result payloads must stay backend-agnostic so the
    service result cache can share entries across kernels)."""

    tasks_total: int = 0
    #: tasks executed by the vector kernel's fused engine.
    tasks_vector: int = 0
    #: tasks executed by the reference loop (including per-task fallbacks).
    tasks_reference: int = 0
    #: tasks double-executed by verify mode.
    tasks_verified: int = 0
    #: reasons the vector kernel declined a task, by gate name.
    fallback_reasons: dict = field(default_factory=dict)

    def count_fallback(self, reason: str) -> None:
        self.fallback_reasons[reason] = self.fallback_reasons.get(reason, 0) + 1


class SimKernel:
    """Interface: one strategy for executing a task's block trace."""

    #: registry name; subclasses override.
    name = "abstract"

    def __init__(self) -> None:
        self.stats = KernelStats()

    def run_blocks(self, machine, core, pblocks, writes, compute_per_access=None):
        """Execute the trace on ``machine``; returns memory+compute cycles.

        ``pblocks`` and ``writes`` are lists: the physical block and the
        write flag of every reference, in order.  Implementations must leave the machine in exactly the state the
        reference interpreter would (the golden snapshots enforce this),
        including the pending-traffic flush at the end of the task.
        """
        raise NotImplementedError


def resolve_kernel_name(configured: str = "auto") -> str:
    """``REPRO_KERNEL`` when set, else ``configured``; validated."""
    name = os.environ.get(KERNEL_ENV) or configured or "auto"
    if name not in KERNEL_NAMES:
        raise ValueError(
            f"unknown simulation kernel {name!r}; expected one of {KERNEL_NAMES}"
        )
    return name


def make_kernel(name: str = "auto") -> SimKernel:
    """Build the kernel :func:`resolve_kernel_name` picks for ``name``
    (``auto`` builds ``vector``); the machine calls it with no argument."""
    name = resolve_kernel_name(name)
    if name == "reference":
        from repro.sim.kernels.reference import ReferenceKernel

        return ReferenceKernel()
    if name == "verify":
        from repro.sim.kernels.verify import VerifyKernel

        return VerifyKernel()
    from repro.sim.kernels.vector import VectorKernel

    return VectorKernel()
