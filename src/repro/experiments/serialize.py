"""Serialization of experiment results and figures.

Results become plain dicts/JSON so sweeps can be archived, diffed across
simulator versions, and rendered into EXPERIMENTS.md without re-running
multi-minute simulations.  Figures render to JSON, Markdown tables, or
ASCII bar charts.

Sweep JSON is a versioned envelope (``SCHEMA_VERSION``)::

    {"schema_version": 3,
     "runs":     {"workload/policy": {...per-run metrics...}},
     "failures": [ ...structured FailedRun records... ],
     "sweep":    {config_sha256, seed, scale, wall_time_s, ...}}

Schema 3 adds two *optional* per-run sections to schema 2 — ``trace``
(ring-buffer accounting and an event census for a traced run) and
``timeline`` (the interval-metric samples and core->bank request matrix
from :mod:`repro.obs`).  Schema 4 adds the optional per-run
``resumed_from_task`` field (the task count a preempted run was resumed
from — its statistics are byte-identical to an uninterrupted run either
way) and the ``preempted`` shard status the harness writes on graceful
shutdown.  Each bump only *adds* optional fields, so loaders accept every
version in :data:`SUPPORTED_SCHEMA_VERSIONS` and never-preempted untraced
archives differ from schema 2 only in the version number.

``sweep.config_sha256`` is :func:`repro.snapshot.config_sha256` of the
sweep's config — the fingerprint snapshots and the service cache use,
which leaves out the kernel.  Before 3.0 it was a separate hash that
included the kernel, so older archives carry a different value.

Only ``sweep.wall_time_s`` varies between otherwise-identical campaigns;
everything under ``runs`` is deterministic for a given config and seed, so
archives diff cleanly.  Loading validates the version and raises a clear
:class:`ValueError` (or :class:`SchemaVersionError`) on unversioned or
corrupt input instead of a bare ``KeyError`` deep in the compare pipeline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.experiments.figures import Figure
from repro.experiments.runner import ExperimentResult

__all__ = [
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "SchemaVersionError",
    "SweepDocument",
    "result_to_dict",
    "sweep_to_json",
    "figure_to_dict",
    "figure_to_markdown",
    "load_sweep",
]

#: version of the sweep JSON envelope (and of harness shards/manifests).
#: Bump whenever the layout of the archived metrics changes incompatibly.
SCHEMA_VERSION = 4

#: versions loaders accept.  Schema 3 only *adds* optional trace/timeline
#: sections and schema 4 only *adds* the optional ``resumed_from_task``
#: per-run field plus preemption shard/manifest records, so older archives
#: load unchanged.
SUPPORTED_SCHEMA_VERSIONS = (2, 3, 4)


class SchemaVersionError(ValueError):
    """A sweep archive was written under an unsupported schema version.

    The message names the offending file (when the caller knows it), the
    version actually found, and the versions this build reads — enough to
    fix the problem without opening the file.
    """

    def __init__(
        self,
        found: Any,
        expected: int = SCHEMA_VERSION,
        path: Any = None,
    ):
        self.found = found
        self.expected = expected
        self.path = path
        supported = ", ".join(str(v) for v in SUPPORTED_SCHEMA_VERSIONS)
        where = f"{path}: " if path is not None else ""
        super().__init__(
            f"{where}sweep JSON schema version {found!r} is not supported "
            f"(this tool reads versions {supported} and writes version "
            f"{expected}); re-archive the sweep with 'repro sweep'"
        )


@dataclass
class SweepDocument:
    """A parsed sweep archive: runs, failure records, and sweep metadata."""

    runs: dict[tuple[str, str], dict[str, Any]]
    failures: list[dict[str, Any]] = field(default_factory=list)
    meta: dict[str, Any] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION


def result_to_dict(
    r: ExperimentResult,
    *,
    trace: Any = None,
    timeline: Any = None,
) -> dict[str, Any]:
    """Flatten one run's statistics into a JSON-safe dict.

    ``trace`` (a :class:`repro.obs.events.EventTrace`) and ``timeline`` (a
    :class:`repro.obs.timeline.IntervalTimeline`) add the optional schema-3
    observability sections; both default to absent so untraced runs
    serialize exactly as under schema 2.
    """
    m = r.machine
    out: dict[str, Any] = {
        "workload": r.workload,
        "policy": r.policy,
        "makespan_cycles": r.execution.makespan_cycles,
        "tasks_executed": r.execution.tasks_executed,
        "phases": r.execution.phases,
        "busy_cycles": list(r.execution.busy_cycles),
        "extension_cycles": r.execution.extension_cycles,
        "creation_cycles": r.execution.creation_cycles,
        "tdg_edges": r.execution.tdg_edges,
        "llc": {
            "accesses": m.llc.accesses,
            "hits": m.llc.hits,
            "misses": m.llc.misses,
            "hit_ratio": m.llc_hit_ratio,
            "evictions": m.llc.evictions,
            "dirty_evictions": m.llc.dirty_evictions,
        },
        "l1": {
            "accesses": m.l1.accesses,
            "hits": m.l1.hits,
            "misses": m.l1.misses,
        },
        "noc": {
            "router_bytes": m.router_bytes,
            "flit_hops": m.traffic.flit_hops,
            "messages": m.traffic.messages,
            "mean_nuca_distance": m.mean_nuca_distance,
        },
        "dram": {"reads": m.dram_reads, "writes": m.dram_writes},
        "energy_pj": {
            "llc": m.energy.llc,
            "noc": m.energy.noc,
            "dram": m.energy.dram,
            "l1": m.energy.l1,
            "rrt": m.energy.rrt,
        },
        "tlb": {
            "accesses": m.tlb.accesses,
            "hit_ratio": m.tlb.hit_ratio,
        },
        "bypassed_accesses": m.bypassed_accesses,
        "unique_blocks": r.unique_blocks,
    }
    if r.rnuca_census is not None:
        out["block_census"] = {
            "private": r.rnuca_census.private,
            "shared_read_only": r.rnuca_census.shared_read_only,
            "shared": r.rnuca_census.shared,
        }
    if r.runtime is not None:
        out["tdnuca_runtime"] = {
            "decisions": r.runtime.decisions,
            "bypass": r.runtime.bypass_decisions,
            "local": r.runtime.local_decisions,
            "replicate": r.runtime.replicate_decisions,
            "untracked": r.runtime.untracked_decisions,
            "lazy_invalidations": r.runtime.lazy_invalidations,
            "software_cycles": r.runtime.software_cycles,
            "rrt_occupancy_mean": r.runtime.mean_rrt_occupancy,
            "rrt_occupancy_max": r.runtime.occupancy_max,
        }
    if r.isa is not None:
        out["isa"] = {
            "registers": r.isa.registers_executed,
            "invalidates": r.isa.invalidates_executed,
            "flushes": r.isa.flushes_executed,
            "flush_cycles": r.isa.flush_cycles,
            "blocks_flushed": r.isa.blocks_flushed,
            "translation_tlb_accesses": r.isa.translation_tlb_accesses,
        }
    if m.faults is not None:
        out["faults"] = {
            "banks_failed": m.faults.banks_failed,
            "links_failed": m.faults.links_failed,
            "blocks_lost": m.faults.blocks_lost,
            "dirty_blocks_lost": m.faults.dirty_blocks_lost,
            "l1_copies_dropped": m.faults.l1_copies_dropped,
            "rrt_entries_dropped": m.faults.rrt_entries_dropped,
            "dead_bank_redirects": m.faults.dead_bank_redirects,
            "dram_transient_errors": m.faults.dram_transient_errors,
            "dram_retries": m.faults.dram_retries,
            "dram_retry_cycles": m.faults.dram_retry_cycles,
            "dram_retries_exhausted": m.faults.dram_retries_exhausted,
            "mean_hop_inflation": m.faults.mean_hop_inflation,
            "pending_events": m.faults.pending_events,
        }
    if "invariants" in m.extra:
        out["invariants"] = dict(m.extra["invariants"])
    if "dep_category_blocks" in r.extra:
        out["dep_category_blocks"] = dict(r.extra["dep_category_blocks"])
        out["dep_blocks_total"] = r.extra["dep_blocks_total"]
    if "resumed_from_task" in r.extra:
        out["resumed_from_task"] = r.extra["resumed_from_task"]
    if trace is not None:
        by_kind: dict[str, int] = {}
        for ev in trace.events():
            key = ev.kind.value
            by_kind[key] = by_kind.get(key, 0) + 1
        out["trace"] = {
            "events_recorded": trace.total,
            "events_dropped": trace.dropped,
            "capacity": trace.capacity,
            "by_kind": dict(sorted(by_kind.items())),
        }
    if timeline is not None:
        out["timeline"] = timeline.to_dict()
    return out


def sweep_to_json(
    runs: dict[tuple[str, str], Any],
    failures: list[dict[str, Any]] | tuple = (),
    meta: dict[str, Any] | None = None,
    indent: int = 2,
) -> str:
    """Serialize a sweep into the versioned envelope.

    ``runs`` values may be :class:`ExperimentResult` objects (flattened via
    :func:`result_to_dict`) or already-flattened dicts, e.g. loaded back
    from harness checkpoint shards.  Keys are sorted so the output is
    byte-stable regardless of job completion order.
    """
    payload: dict[str, Any] = {}
    for (wl, pol), value in runs.items():
        payload[f"{wl}/{pol}"] = (
            result_to_dict(value) if isinstance(value, ExperimentResult) else value
        )
    doc = {
        "schema_version": SCHEMA_VERSION,
        "runs": payload,
        "failures": list(failures),
        "sweep": dict(meta or {}),
    }
    return json.dumps(doc, indent=indent, sort_keys=True)


def load_sweep(text: str, *, path: Any = None) -> SweepDocument:
    """Parse and validate a sweep archive.

    Raises :class:`SchemaVersionError` when the archive was written under a
    different schema version and plain :class:`ValueError` (with a message
    naming the problem — and the offending file, when ``path`` is given)
    on corrupt, unversioned, or malformed input.
    """
    where = f"{path}: " if path is not None else ""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}corrupt sweep JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"{where}corrupt sweep JSON: top level must be an object")
    if "schema_version" not in raw:
        raise ValueError(
            f"{where}unversioned sweep JSON (written before schema "
            "versioning); re-archive it with 'repro sweep'"
        )
    if raw["schema_version"] not in SUPPORTED_SCHEMA_VERSIONS:
        raise SchemaVersionError(raw["schema_version"], path=path)
    runs_raw = raw.get("runs")
    if not isinstance(runs_raw, dict):
        raise ValueError(f"{where}corrupt sweep JSON: missing 'runs' object")
    runs: dict[tuple[str, str], dict[str, Any]] = {}
    for key, value in runs_raw.items():
        wl, _, pol = key.partition("/")
        if not pol:
            raise ValueError(f"{where}malformed result key {key!r}")
        if not isinstance(value, dict):
            raise ValueError(
                f"{where}corrupt sweep JSON: run {key!r} is not an object"
            )
        runs[(wl, pol)] = value
    failures = raw.get("failures", [])
    if not isinstance(failures, list):
        raise ValueError(f"{where}corrupt sweep JSON: 'failures' must be a list")
    meta = raw.get("sweep", {})
    if not isinstance(meta, dict):
        raise ValueError(f"{where}corrupt sweep JSON: 'sweep' must be an object")
    return SweepDocument(
        runs=runs,
        failures=failures,
        meta=meta,
        schema_version=raw["schema_version"],
    )


def figure_to_dict(fig: Figure) -> dict[str, Any]:
    return {
        "id": fig.fig_id,
        "title": fig.title,
        "series": {
            s.label: {"values": dict(s.values), "average": s.average}
            for s in fig.series
        },
        "paper_averages": dict(fig.paper_averages),
    }


def figure_to_markdown(fig: Figure) -> str:
    """GitHub-flavoured Markdown table for EXPERIMENTS.md."""
    benches = list(fig.series[0].values) if fig.series else []
    header = "| bench | " + " | ".join(s.label for s in fig.series) + " |"
    sep = "|---" * (len(fig.series) + 1) + "|"
    lines = [f"**{fig.fig_id} — {fig.title}**", "", header, sep]
    for b in benches:
        cells = " | ".join(f"{s.values[b]:.3f}" for s in fig.series)
        lines.append(f"| {b} | {cells} |")
    lines.append(
        "| **AVG** | "
        + " | ".join(f"**{s.average:.3f}**" for s in fig.series)
        + " |"
    )
    if fig.paper_averages:
        lines.append(
            "| *paper AVG* | "
            + " | ".join(
                f"*{fig.paper_averages[s.label]:.3f}*"
                if s.label in fig.paper_averages
                else "-"
                for s in fig.series
            )
            + " |"
        )
    return "\n".join(lines)
