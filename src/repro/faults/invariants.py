"""Runtime invariant checking over the simulated memory hierarchy.

Graceful degradation is only worth anything if it is provably *graceful*:
after a bank dies or a link drops, the surviving state must still satisfy
the protocol's steady-state invariants — otherwise the run is silently
corrupt and every downstream statistic is fiction.  The checker validates,
against a quiescent machine (between tasks):

* **structural soundness** — every cache bank's block->way map, way array
  and maintained occupancy counter agree (:meth:`CacheBank.audit`);
* **directory consistency** — every L1-resident line has its presence bit
  set in the coherence directory; every dirty L1 line is its directory
  owner; every directory owner holds the line dirty in its L1.  (Stale
  presence bits are *legal*: clean L1 evictions are silent, per Table I.)
* **LLC inclusion** — under the hardware-inclusive policies (S/R/D-NUCA)
  every L1-resident line is backed by some live LLC bank.  TD-NUCA is
  exempt by construction: bypassed regions live in L1 with no LLC copy and
  the runtime's flush protocol (not inclusion) guarantees coherence.
* **no dead-bank residency** — fault-disabled banks hold nothing;
* **LLC residency mask** — the LLC's per-block bank mask, which the
  eviction path reads instead of scanning the banks, names exactly the
  banks that hold each block.

:class:`InvariantChecker` is driven by the machine in strict mode: cheap
checks after every task, a full sweep every ``interval`` tasks and at
stats-collection time.  :func:`check_machine` is the standalone one-shot
entry point used by tests.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "InvariantViolation",
    "InvariantError",
    "InvariantChecker",
    "check_machine",
]


@dataclass(frozen=True)
class InvariantViolation:
    """One broken invariant: which check failed and the offending state."""

    check: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.check}] {self.detail}"


class InvariantError(AssertionError):
    """Raised by strict mode on the first dirty invariant sweep."""

    def __init__(self, violations: list[InvariantViolation]) -> None:
        self.violations = violations
        lines = "\n".join(f"  {v}" for v in violations[:20])
        extra = len(violations) - 20
        if extra > 0:
            lines += f"\n  ... and {extra} more"
        super().__init__(f"{len(violations)} invariant violation(s):\n{lines}")


def _check_structure(machine, out: list[InvariantViolation]) -> None:
    for cache in (*machine.l1s, *machine.llc.banks):
        for issue in cache.audit():
            out.append(InvariantViolation("occupancy-balance", issue))
    for issue in machine.directory.audit():
        out.append(InvariantViolation("directory-internal", issue))


def _check_directory(machine, out: list[InvariantViolation]) -> None:
    directory = machine.directory
    for core, l1 in enumerate(machine.l1s):
        for block, dirty in l1.resident_items():
            if not (directory.sharer_mask(block) >> core) & 1:
                out.append(
                    InvariantViolation(
                        "directory-presence",
                        f"core {core} holds block {block} untracked by the "
                        "directory",
                    )
                )
            if dirty and directory.owner(block) != core:
                out.append(
                    InvariantViolation(
                        "directory-owner",
                        f"core {core} holds block {block} dirty but the "
                        f"directory owner is {directory.owner(block)}",
                    )
                )
    for block, owner in directory.owner_items():
        l1 = machine.l1s[owner]
        if not l1.contains(block):
            out.append(
                InvariantViolation(
                    "directory-owner",
                    f"directory says core {owner} owns block {block} but its "
                    "L1 does not hold it",
                )
            )
        elif not l1.is_dirty(block):
            out.append(
                InvariantViolation(
                    "directory-owner",
                    f"directory says core {owner} owns block {block} but the "
                    "L1 copy is clean",
                )
            )


def _check_inclusion(machine, out: list[InvariantViolation]) -> None:
    # TD-NUCA machines (rrts set) legitimately hold bypassed lines in L1
    # with no LLC copy and retire LLC mappings via runtime flushes, so the
    # hardware-inclusion invariant only applies to the other policies.
    if machine.rrts is not None:
        return
    llc_resident: set[int] = set()
    for bank in machine.llc.banks:
        llc_resident.update(bank.resident_blocks())
    for core, l1 in enumerate(machine.l1s):
        for block in l1.resident_blocks():
            if block not in llc_resident:
                out.append(
                    InvariantViolation(
                        "llc-inclusion",
                        f"core {core} L1 holds block {block} with no LLC copy",
                    )
                )


def _check_dead_banks(machine, out: list[InvariantViolation]) -> None:
    for bank in machine.llc.dead_banks:
        occ = machine.llc.banks[bank].occupancy
        if occ:
            out.append(
                InvariantViolation(
                    "dead-bank-residency",
                    f"dead LLC bank {bank} holds {occ} block(s)",
                )
            )


def _check_residency_mask(machine, out: list[InvariantViolation]) -> None:
    where = machine.llc._where
    actual = machine.llc.residency()
    if where == actual:
        return
    for block in sorted(where.keys() | actual.keys()):
        mask, held = where.get(block, 0), actual.get(block, 0)
        if mask != held:
            out.append(
                InvariantViolation(
                    "llc-residency-mask",
                    f"block {block}: mask {mask:#x} but held by banks {held:#x}",
                )
            )


def check_machine(machine) -> list[InvariantViolation]:
    """Full invariant sweep over a quiescent machine; [] means clean."""
    out: list[InvariantViolation] = []
    _check_dead_banks(machine, out)
    _check_structure(machine, out)
    _check_residency_mask(machine, out)
    _check_directory(machine, out)
    _check_inclusion(machine, out)
    return out


class InvariantChecker:
    """Strict-mode driver: cheap checks per task, full sweeps periodically.

    ``interval`` bounds the cost: the O(machine-state) full sweep runs every
    ``interval`` task boundaries (and on demand at end of run); the O(dead
    banks) residency check runs at every boundary.  All violations raise
    :class:`InvariantError` immediately — degradation must never be
    silently wrong.
    """

    def __init__(self, interval: int = 16) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.checks_run = 0
        self.full_sweeps = 0
        self.violations_found = 0

    def _raise_if_dirty(self, violations: list[InvariantViolation]) -> None:
        if violations:
            self.violations_found += len(violations)
            raise InvariantError(violations)

    def on_task_boundary(self, machine, task_index: int) -> None:
        """Called by the machine after each task's trace completes."""
        self.checks_run += 1
        if task_index % self.interval == 0:
            self.full_sweep(machine)
            return
        out: list[InvariantViolation] = []
        _check_dead_banks(machine, out)
        self._raise_if_dirty(out)

    def full_sweep(self, machine) -> None:
        """Run every invariant; raises :class:`InvariantError` if dirty."""
        self.full_sweeps += 1
        self._raise_if_dirty(check_machine(machine))

    # --- checkpoint/restore ---

    def state_dict(self) -> dict:
        return {
            "checks_run": self.checks_run,
            "full_sweeps": self.full_sweeps,
            "violations_found": self.violations_found,
        }

    def load_state_dict(self, state: dict) -> None:
        self.checks_run = int(state["checks_run"])
        self.full_sweeps = int(state["full_sweeps"])
        self.violations_found = int(state["violations_found"])
