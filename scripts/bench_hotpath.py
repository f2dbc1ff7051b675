#!/usr/bin/env python
"""Wall-clock benchmark of the simulator's per-reference hot path.

Runs every golden (workload, policy[, faults]) cell under each simulation
kernel *without* cProfile (so the numbers reflect real interpreter speed,
not profiler overhead), takes the best of ``--repeats`` runs per cell,
and writes a schema-versioned ``BENCH_hotpath.json`` (atomically — a
crash mid-benchmark never corrupts a previously recorded baseline).

Schema 2 records two timings per (cell, kernel):

``us_per_reference``
    whole-run wall time per reference — what a user experiences; includes
    runtime-layer work (scheduler, trace build, census, extensions).
``hot_us_per_reference``
    time inside ``Machine._run_blocks`` only — the per-reference hot path
    this benchmark is named for, and the number the kernels compete on.

Each invocation also appends one line per (cell, kernel) to
``BENCH_history.jsonl`` and gates against the trendline: the run fails
if ``hot_us_per_reference`` worsens more than ``--gate-pct`` (default
15%) against the median of the last 3 committed entries for the same
cell at the same scale, with an absolute noise floor.  The gate reads
the hot-path number, not the whole-run wall time: the runtime layer's
share of a run swings with allocator/GC state and machine load far
more than the kernel loop does, and the kernels are what this gate
polices.  ``--no-gate`` records without judging (for machines with no
comparable history).

Usage:
    PYTHONPATH=src python scripts/bench_hotpath.py
    PYTHONPATH=src python scripts/bench_hotpath.py --smoke   # CI: 2 cells only
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.api import Session  # noqa: E402
from repro.config import scaled_config  # noqa: E402
from repro.experiments.golden import GOLDEN_CASES  # noqa: E402
from repro.ioutils import atomic_write  # noqa: E402
from repro.sim.kernels import KERNEL_ENV  # noqa: E402

SCHEMA_VERSION = 2

#: kernels every cell is benchmarked under (``auto`` and ``verify`` are
#: selection/debug modes, not distinct engines).
BENCH_KERNELS = ("reference", "vector")

#: cells the CI smoke run times: the two cells the ROADMAP's perf
#: target is stated against.
SMOKE_CASE_IDS = ("kmeans-tdnuca", "jacobi-tdnuca")

#: entries of history considered per cell; the gate compares against
#: their median so one outlier run cannot set (or wreck) the baseline.
GATE_WINDOW = 3

#: regressions smaller than this many us/reference never fail the gate.
#: Sized to the observed run-to-run wall-clock jitter on a shared box
#: (±3 us on ~10 us cells): a cell fails only when it is BOTH >15%
#: worse than its trendline AND past this absolute noise floor, so a
#: real regression (which clears both easily) still trips while load
#: spikes do not.
GATE_ABS_FLOOR_US = 3.0


class _HotTimer:
    """Accumulates wall time spent inside ``Machine._run_blocks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.kernel_stats = None

    def install(self):
        from repro.sim.machine import Machine

        original = Machine._run_blocks
        timer = self

        def timed(machine, core, pblocks, writes, compute_per_access=None):
            t0 = time.perf_counter()
            result = original(
                machine, core, pblocks, writes, compute_per_access
            )
            timer.seconds += time.perf_counter() - t0
            timer.kernel_stats = machine.kernel.stats
            return result

        Machine._run_blocks = timed
        return lambda: setattr(Machine, "_run_blocks", original)


def bench_cell(case, kernel: str, denom: int, repeats: int) -> dict:
    cfg = scaled_config(1.0 / denom)
    if case.fault_spec:
        cfg = replace(cfg, fault_spec=case.fault_spec)
    session = Session(cfg, seed=case.seed)
    best = hot_best = None
    references = tasks = 0
    dispatch = None
    for _ in range(repeats):
        timer = _HotTimer()
        uninstall = timer.install()
        try:
            with mock.patch.dict(os.environ, {KERNEL_ENV: kernel}):
                start = time.perf_counter()
                result = session.run(case.workload, case.policy)
                elapsed = time.perf_counter() - start
        finally:
            uninstall()
        best = elapsed if best is None else min(best, elapsed)
        hot_best = (
            timer.seconds if hot_best is None else min(hot_best, timer.seconds)
        )
        references = result.machine.l1.accesses
        tasks = result.execution.tasks_executed
        ks = timer.kernel_stats
        if ks is not None:
            dispatch = {
                "tasks_total": ks.tasks_total,
                "tasks_vector": ks.tasks_vector,
                "tasks_reference": ks.tasks_reference,
                "fallback_reasons": dict(ks.fallback_reasons),
            }
    return {
        "case": case.case_id,
        "workload": case.workload,
        "policy": case.policy,
        "faults": case.fault_spec,
        "kernel": kernel,
        "references": references,
        "tasks": tasks,
        "seconds_best": round(best, 6),
        "us_per_reference": round(best / max(1, references) * 1e6, 4),
        "hot_seconds_best": round(hot_best, 6),
        "hot_us_per_reference": round(
            hot_best / max(1, references) * 1e6, 4
        ),
        "dispatch": dispatch,
    }


def _cell_key(row: dict, scale: int) -> tuple:
    return (row["case"], row["kernel"], scale)


def load_history(path: Path) -> list[dict]:
    if not path.exists():
        return []
    entries = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entries.append(json.loads(line))
        except json.JSONDecodeError:
            continue  # a torn append must not break future benches
    return entries


def check_gate(
    results: list[dict], history: list[dict], scale: int, gate_pct: float
) -> list[str]:
    """Compare each new cell against its trendline; returns failures."""
    failures = []
    for row in results:
        key = _cell_key(row, scale)
        past = [
            e["hot_us_per_reference"]
            for e in history
            if (e.get("case"), e.get("kernel"), e.get("scale")) == key
            and "hot_us_per_reference" in e
        ][-GATE_WINDOW:]
        if not past:
            continue
        baseline = sorted(past)[len(past) // 2]
        new = row["hot_us_per_reference"]
        worsened = new - baseline
        if worsened > baseline * gate_pct and worsened > GATE_ABS_FLOOR_US:
            failures.append(
                f"{row['case']} [{row['kernel']}]: hot path {new:.2f} us/ref "
                f"vs trendline median {baseline:.2f} "
                f"(+{worsened / baseline * 100.0:.0f}%, gate {gate_pct * 100:.0f}%)"
            )
    return failures


def append_history(path: Path, results: list[dict], scale: int) -> None:
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    with open(path, "a", encoding="utf-8") as fh:
        for row in results:
            entry = {
                "ts": stamp,
                "scale": scale,
                "case": row["case"],
                "kernel": row["kernel"],
                "references": row["references"],
                "us_per_reference": row["us_per_reference"],
                "hot_us_per_reference": row["hot_us_per_reference"],
                "python": platform.python_version(),
            }
            fh.write(json.dumps(entry, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--scale", type=int, default=256, metavar="DENOM",
        help="run at 1/DENOM of the paper's full-size config (default 256)",
    )
    ap.add_argument(
        "--repeats", type=int, default=3,
        help="runs per cell; best-of is recorded (default 3)",
    )
    ap.add_argument(
        "--kernels", nargs="+", default=list(BENCH_KERNELS),
        choices=list(BENCH_KERNELS),
        help="kernels to bench (default: all)",
    )
    ap.add_argument(
        "--out", type=Path, default=ROOT / "BENCH_hotpath.json",
        help="output JSON path (default BENCH_hotpath.json at the repo root)",
    )
    ap.add_argument(
        "--history", type=Path, default=ROOT / "BENCH_history.jsonl",
        help="trendline file appended to and gated against",
    )
    ap.add_argument(
        "--smoke", action="store_true",
        help="CI mode: only the two ROADMAP target cells, still gated",
    )
    ap.add_argument(
        "--gate-pct", type=float, default=0.15,
        help="fail if the hot-path us/ref worsens more than this fraction "
        "vs the trendline median (default 0.15)",
    )
    ap.add_argument(
        "--no-gate", action="store_true",
        help="record results and history without failing on regression",
    )
    args = ap.parse_args(argv)

    if os.environ.pop(KERNEL_ENV, None) is not None:
        print(
            f"warning: ignoring {KERNEL_ENV} — the bench pins each kernel "
            "explicitly", file=sys.stderr,
        )

    if args.smoke:
        cases = [c for c in GOLDEN_CASES if c.case_id in SMOKE_CASE_IDS]
    else:
        cases = list(GOLDEN_CASES)
    repeats = args.repeats

    results = []
    for case in cases:
        for kernel in args.kernels:
            row = bench_cell(case, kernel, args.scale, repeats)
            results.append(row)
            print(
                f"{row['case']:28s} [{kernel:9s}] @1/{args.scale}: "
                f"{row['references']:>9,} refs  "
                f"wall {row['us_per_reference']:6.2f} us/ref  "
                f"hot {row['hot_us_per_reference']:6.2f} us/ref"
            )

    history = load_history(args.history)
    failures = check_gate(results, history, args.scale, args.gate_pct)
    append_history(args.history, results, args.scale)

    payload = {
        "schema_version": SCHEMA_VERSION,
        "scale_denominator": args.scale,
        "repeats": repeats,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "kernels": list(args.kernels),
        "results": results,
    }
    with atomic_write(args.out) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}; appended {len(results)} entries to {args.history}")

    if failures:
        print("\nperformance regression gate:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        if args.no_gate:
            print("  (--no-gate: reported, not failing)", file=sys.stderr)
        else:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
