#!/usr/bin/env python
"""Deterministic perf-regression smoke test for CI.

Wall-clock timing is useless on shared CI runners, but the *number of
Python function calls* the simulator makes per run is fully deterministic
(fixed seeds, fixed traces).  This test runs the canonical hot-path case
(kmeans/tdnuca at 1/256 scale) under cProfile, once per simulation
kernel, and fails if the total call count exceeds that kernel's ceiling,
so an accidental re-introduction of per-reference call overhead (the
exact regression the flattened hot path removed) is caught on every push.

Ceilings are the measured counts plus ~15% headroom for legitimate
feature growth (reference: ~0.78M calls — ~3.6M before the hot-path
flattening, ~0.99M before the per-task pipeline worked on block runs,
~0.83M before the LLC residency mask; vector: ~0.71M, the fused engine
inlines the coherence/eviction call chains).  If you trip one with a real
feature, re-measure with ``REPRO_KERNEL=<k> scripts/profile_simulator.py
--json`` and raise the ceiling in the same commit, stating the new
measured count.

Usage: ``PYTHONPATH=src python scripts/perf_smoke.py``
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from profile_simulator import profile_run  # noqa: E402

WORKLOAD = "kmeans"
POLICY = "tdnuca"
DENOM = 256
#: per-kernel measured call counts +15%, rounded up to the thousand
#: (ceilings only ever fall).  reference: 781,268 and vector: 708,604
#: (traced: 790,223) since ``profile_run`` imports what a run loads
#: lazily before it profiles, so that every tree reads the same counts
#: whatever bytecode caches it holds; the same code read 783,548 /
#: 707,727 in a long-used checkout and 783,537 / 707,715 in a fresh
#: one before, the first run of a process carrying numpy.random's and
#: its kernel's import.  (831,514 and 749,004 before the LLC residency
#: mask; 986,446 and 859,571 before each task's trace, census and
#: translation worked on block runs.)
CALL_CEILINGS = {
    "reference": 899_000,
    "vector": 814_000,
}
#: tracing must stay off the per-reference path: a traced run may make at
#: most 5% more function calls than the identical untraced run (events
#: fire at task/phase boundaries only, so the overhead is O(tasks), which
#: is a rounding error next to O(references)).  Traced runs take the same
#: kernel path as untraced ones; the ratio is measured under the reference
#: kernel, the interpreter that defines the semantics, as it always was.
TRACED_RATIO_CEILING = 1.05


def main() -> int:
    reference_calls = reference_refs = None
    for kernel in ("reference", "vector"):
        ceiling = CALL_CEILINGS[kernel]
        result, stats = profile_run(WORKLOAD, POLICY, DENOM, kernel=kernel)
        calls = stats.total_calls
        references = result.machine.l1.accesses
        print(
            f"{WORKLOAD}/{POLICY} @1/{DENOM} [{kernel}]: "
            f"{references:,} references, {calls:,} function calls "
            f"(ceiling {ceiling:,})"
        )
        if calls > ceiling:
            print(
                f"FAIL: [{kernel}] call count exceeds the hot-path ceiling — "
                "a per-reference call chain has probably crept back in.  "
                "Profile with REPRO_KERNEL set and scripts/profile_simulator.py, and "
                "either flatten it or raise the ceiling with a re-measured "
                "baseline.",
                file=sys.stderr,
            )
            return 1
        if kernel == "reference":
            reference_calls = calls
            reference_refs = references

    traced_result, traced_stats = profile_run(
        WORKLOAD, POLICY, DENOM, trace=True, kernel="reference"
    )
    if traced_result.machine.l1.accesses != reference_refs:
        print(
            "FAIL: tracing changed the simulated work "
            f"({traced_result.machine.l1.accesses:,} references vs "
            f"{reference_refs:,} untraced) — observability must be read-only.",
            file=sys.stderr,
        )
        return 1
    ratio = traced_stats.total_calls / max(1, reference_calls)
    print(
        f"traced [reference]: {traced_stats.total_calls:,} function calls -> "
        f"{ratio:.4f}x untraced (ceiling {TRACED_RATIO_CEILING}x)"
    )
    if ratio > TRACED_RATIO_CEILING:
        print(
            "FAIL: tracing overhead exceeds the ratio ceiling — an observer "
            "hook has probably landed on the per-reference path.  Keep event "
            "emission at task/phase boundaries only.",
            file=sys.stderr,
        )
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
