#!/usr/bin/env python
"""Profile the simulator's hot path.

"No optimization without measuring": runs one (workload, policy)
experiment under cProfile and prints the top functions by cumulative and
internal time, so changes to the per-access loop can be checked for
regressions.

With ``--json PATH`` a machine-readable summary (us/reference, total
function calls) is also written atomically, for diffing across commits.
The kernel profiled is the one ``REPRO_KERNEL`` selects (``auto`` when
unset).

Usage: python scripts/profile_simulator.py [workload] [policy] [1/scale]
                                           [--json PATH]
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
from pathlib import Path
from unittest import mock

from repro.api import Session
from repro.config import scaled_config
from repro.ioutils import atomic_write
from repro.sim.kernels import KERNEL_ENV, resolve_kernel_name

JSON_SCHEMA_VERSION = 1


def profile_run(
    workload: str,
    policy: str,
    denom: int,
    trace: bool = False,
    kernel: str | None = None,
):
    """Run one experiment under cProfile; returns ``(result, stats)``.

    The session is built, and the modules a run imports lazily (numpy's
    random generators, the kernels) are imported, outside the profiled
    region, so only simulation work is measured: import work is not, and
    its call count depends on the bytecode caches of the tree.
    ``trace=True`` profiles the observability-enabled path (used by the
    perf smoke test to bound tracing overhead), and ``kernel`` pins a
    simulation backend through ``REPRO_KERNEL`` so per-kernel call counts
    can be compared.
    """
    import numpy.random  # noqa: F401
    import repro.sim.kernels.reference  # noqa: F401
    import repro.sim.kernels.vector  # noqa: F401
    import repro.sim.kernels.verify  # noqa: F401

    session = Session(scaled_config(1.0 / denom))
    with mock.patch.dict(os.environ, {KERNEL_ENV: kernel} if kernel else {}):
        profiler = cProfile.Profile()
        profiler.enable()
        result = session.run(workload, policy, trace=trace)
        profiler.disable()
    return result, pstats.Stats(profiler)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Profile the simulator hot path")
    ap.add_argument("workload", nargs="?", default="kmeans")
    ap.add_argument("policy", nargs="?", default="tdnuca")
    ap.add_argument("denom", nargs="?", type=int, default=256,
                    help="scale denominator (config at 1/denom)")
    ap.add_argument("--json", type=Path, default=None, metavar="PATH",
                    help="also write a machine-readable summary to PATH")
    ap.add_argument("--trace", action="store_true",
                    help="profile with the observability layer attached")
    args = ap.parse_args(argv)

    result, stats = profile_run(
        args.workload, args.policy, args.denom, trace=args.trace
    )

    accesses = result.machine.l1.accesses
    total = stats.total_tt
    us_per_ref = total / max(1, accesses) * 1e6
    print(
        f"{args.workload}/{args.policy} @1/{args.denom}: "
        f"{accesses:,} memory references, "
        f"{total:.2f}s -> {us_per_ref:.2f} us/reference\n"
    )

    if args.json is not None:
        payload = {
            "schema_version": JSON_SCHEMA_VERSION,
            "workload": args.workload,
            "policy": args.policy,
            "scale_denominator": args.denom,
            "traced": args.trace,
            "kernel": resolve_kernel_name(),
            "references": accesses,
            "total_seconds": round(total, 6),
            "us_per_reference": round(us_per_ref, 4),
            "total_calls": stats.total_calls,
        }
        with atomic_write(args.json) as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}\n")

    print("== top 15 by cumulative time ==")
    stats.sort_stats("cumulative").print_stats(15)
    print("== top 15 by internal time ==")
    stats.sort_stats("tottime").print_stats(15)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
