"""Assembly of every figure/table of the paper's evaluation section from a
suite of :class:`~repro.experiments.runner.ExperimentResult`\\ s.

Each ``figNN_*`` function consumes the results dict produced by
:meth:`repro.api.Session.suite` (keyed ``(workload, policy)``)
and returns a :class:`Figure` with one value series per policy plus the
paper's reference numbers, ready to print side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import SystemConfig
from repro.experiments import paper
from repro.experiments.runner import ExperimentResult
from repro.stats.report import format_table
from repro.workloads.registry import BENCHMARKS, workload_names

__all__ = [
    "Figure",
    "FigureSeries",
    "fig3_classification",
    "fig8_speedup",
    "fig9_llc_accesses",
    "fig10_hit_ratio",
    "fig11_nuca_distance",
    "fig12_data_movement",
    "fig13_llc_energy",
    "fig14_noc_energy",
    "fig15_bypass_only",
    "table1_rows",
    "table2_rows",
    "rrt_occupancy_report",
    "flush_overhead_report",
    "runtime_overhead_report",
]

Results = dict[tuple[str, str], ExperimentResult]


@dataclass
class FigureSeries:
    label: str
    values: dict[str, float]

    @property
    def average(self) -> float:
        vals = list(self.values.values())
        return sum(vals) / len(vals) if vals else 0.0


@dataclass
class Figure:
    fig_id: str
    title: str
    series: list[FigureSeries]
    paper_averages: dict[str, float] = field(default_factory=dict)
    notes: str = ""

    def to_text(self) -> str:
        benches = list(self.series[0].values) if self.series else []
        headers = ["bench"] + [s.label for s in self.series]
        rows = [
            [b] + [f"{s.values[b]:.3f}" for s in self.series] for b in benches
        ]
        avg_row = ["AVG"] + [f"{s.average:.3f}" for s in self.series]
        rows.append(avg_row)
        if self.paper_averages:
            rows.append(
                ["paper AVG"]
                + [
                    (
                        f"{self.paper_averages[s.label]:.3f}"
                        if s.label in self.paper_averages
                        else "-"
                    )
                    for s in self.series
                ]
            )
        text = format_table(headers, rows, f"{self.fig_id}: {self.title}")
        if self.notes:
            text += f"\n{self.notes}"
        return text

    def to_chart(self, width: int = 36) -> str:
        """ASCII grouped-bar rendering (the shape of the paper's plots)."""
        from repro.stats.charts import grouped_bar_chart

        benches = list(self.series[0].values) if self.series else []
        groups = {
            b: {s.label: s.values[b] for s in self.series} for b in benches
        }
        groups["AVG"] = {s.label: s.average for s in self.series}
        return grouped_bar_chart(groups, f"{self.fig_id}: {self.title}", width)


def _benches(results: Results) -> list[str]:
    present = {wl for wl, _ in results}
    return [b for b in workload_names() if b in present]


def _norm_series(
    results: Results, policies: list[str], metric, label_of=None
) -> list[FigureSeries]:
    """Series of ``metric(result) / metric(snuca result)`` per policy."""
    benches = _benches(results)
    series = []
    for pol in policies:
        values = {}
        for b in benches:
            base = metric(results[(b, "snuca")])
            values[b] = metric(results[(b, pol)]) / base if base else 0.0
        series.append(FigureSeries(label_of(pol) if label_of else pol, values))
    return series


# ---------------------------------------------------------------------------
# Fig. 3 — classification of access and reuse patterns
# ---------------------------------------------------------------------------


def fig3_classification(results: Results) -> Figure:
    """Left bars from the S-NUCA run's block census (what an OS-level
    classifier could identify); right bars from the TD-NUCA runtime's
    dependency usage records."""
    benches = _benches(results)
    rn_priv, rn_ro, td_dep, td_nr = {}, {}, {}, {}
    for b in benches:
        census = results[(b, "snuca")].rnuca_census
        total = census.total or 1
        rn_priv[b] = census.private / total
        rn_ro[b] = census.shared_read_only / total
        td = results[(b, "tdnuca")]
        cats = td.extra.get("dep_category_blocks", {})
        dep_total = sum(cats.values())
        unique = td.unique_blocks or 1
        td_dep[b] = min(1.0, dep_total / unique)
        td_nr[b] = min(1.0, cats.get("not_reused", 0) / unique)
    return Figure(
        "Fig.3",
        "unique-block classification (fractions)",
        [
            FigureSeries("rnuca_private", rn_priv),
            FigureSeries("rnuca_shared_ro", rn_ro),
            FigureSeries("td_dep_blocks", td_dep),
            FigureSeries("td_not_reused", td_nr),
        ],
        {
            "rnuca_private": paper.FIG3_RNUCA_OPTIMIZABLE_AVG,
            "td_dep_blocks": paper.FIG3_DEP_BLOCK_FRACTION_AVG,
            "td_not_reused": paper.FIG3_NOT_REUSED_AVG,
        },
        notes=(
            "paper: R-NUCA private+shared-RO avg 0.36; dependency blocks "
            "avg 0.96; NotReused avg 0.72"
        ),
    )


# ---------------------------------------------------------------------------
# Figs. 8-15
# ---------------------------------------------------------------------------


def fig8_speedup(results: Results) -> Figure:
    benches = _benches(results)
    series = []
    for pol in ("rnuca", "tdnuca"):
        values = {
            b: results[(b, "snuca")].makespan / results[(b, pol)].makespan
            for b in benches
        }
        series.append(FigureSeries(pol, values))
    return Figure(
        "Fig.8",
        "speedup over S-NUCA",
        series,
        {"rnuca": paper.FIG8_RNUCA_AVG, "tdnuca": paper.FIG8_TDNUCA_AVG},
    )


def fig9_llc_accesses(results: Results) -> Figure:
    return Figure(
        "Fig.9",
        "LLC accesses normalized to S-NUCA",
        _norm_series(results, ["rnuca", "tdnuca"], lambda r: r.machine.llc_accesses),
        {"rnuca": paper.FIG9_RNUCA_AVG, "tdnuca": paper.FIG9_TDNUCA_AVG},
    )


def fig10_hit_ratio(results: Results) -> Figure:
    benches = _benches(results)
    series = [
        FigureSeries(
            pol, {b: results[(b, pol)].machine.llc_hit_ratio for b in benches}
        )
        for pol in ("snuca", "rnuca", "tdnuca")
    ]
    return Figure("Fig.10", "LLC hit ratio", series, dict(paper.FIG10_AVG))


def fig11_nuca_distance(results: Results) -> Figure:
    benches = _benches(results)
    series = [
        FigureSeries(
            pol, {b: results[(b, pol)].machine.mean_nuca_distance for b in benches}
        )
        for pol in ("snuca", "rnuca", "tdnuca")
    ]
    return Figure(
        "Fig.11",
        "average NUCA distance (hops; bypasses excluded)",
        series,
        dict(paper.FIG11_AVG),
    )


def fig12_data_movement(results: Results) -> Figure:
    return Figure(
        "Fig.12",
        "NoC data movement (router-bytes) normalized to S-NUCA",
        _norm_series(results, ["rnuca", "tdnuca"], lambda r: r.machine.router_bytes),
        {"rnuca": paper.FIG12_RNUCA_AVG, "tdnuca": paper.FIG12_TDNUCA_AVG},
    )


def fig13_llc_energy(results: Results) -> Figure:
    return Figure(
        "Fig.13",
        "LLC dynamic energy normalized to S-NUCA",
        _norm_series(results, ["rnuca", "tdnuca"], lambda r: r.machine.energy.llc),
        {"rnuca": paper.FIG13_RNUCA_AVG, "tdnuca": paper.FIG13_TDNUCA_AVG},
    )


def fig14_noc_energy(results: Results) -> Figure:
    return Figure(
        "Fig.14",
        "NoC dynamic energy normalized to S-NUCA",
        _norm_series(results, ["rnuca", "tdnuca"], lambda r: r.machine.energy.noc),
        {"rnuca": paper.FIG14_RNUCA_AVG, "tdnuca": paper.FIG14_TDNUCA_AVG},
    )


def fig15_bypass_only(results: Results) -> Figure:
    """Needs 'tdnuca-bypass-only' runs in the suite."""
    benches = _benches(results)
    series = []
    for pol, label in (
        ("tdnuca-bypass-only", "bypass_only"),
        ("tdnuca", "full_tdnuca"),
    ):
        values = {
            b: results[(b, "snuca")].makespan / results[(b, pol)].makespan
            for b in benches
        }
        series.append(FigureSeries(label, values))
    return Figure(
        "Fig.15",
        "speedup over S-NUCA: bypass-only vs full TD-NUCA",
        series,
        {
            "bypass_only": paper.FIG15_BYPASS_ONLY_AVG,
            "full_tdnuca": paper.FIG8_TDNUCA_AVG,
        },
    )


# ---------------------------------------------------------------------------
# Tables and Section V-E studies
# ---------------------------------------------------------------------------


def table1_rows(cfg: SystemConfig) -> list[list[str]]:
    """Table I: simulator configuration (current config vs paper values)."""
    lat = cfg.latency
    return [
        ["cores", f"{cfg.num_cores} cores, {cfg.mesh_width}x{cfg.mesh_height} mesh"],
        ["L1D", f"{cfg.l1_bytes // 1024}KB, {cfg.l1_assoc}-way, "
                f"{cfg.block_bytes}B/line, {lat.l1_hit} cycles"],
        ["LLC", f"{cfg.llc_total_bytes // 1024}KB total, banked "
                f"{cfg.llc_bank_bytes // 1024}KB/core, {cfg.llc_assoc}-way, "
                f"{lat.llc_hit} cycles, pseudoLRU"],
        ["TLB", f"{cfg.tlb_entries} entries, {lat.tlb_lookup} cycle"],
        ["NoC", f"{cfg.mesh_width}x{cfg.mesh_height} mesh, link "
                f"{lat.noc_link} cycle, router {lat.noc_router} cycle"],
        ["RRT", f"{cfg.rrt_entries} entries/core, {lat.rrt_lookup} cycle"],
        ["scale", f"{cfg.capacity_scale:g} of Table I capacities"],
    ]


def table2_rows(cfg: SystemConfig) -> list[list[str]]:
    """Table II: benchmarks with paper and scaled footprints."""
    rows = []
    for name, cls in BENCHMARKS.items():
        wl = cls()
        program = wl.build(cfg)
        footprint = program.total_footprint_bytes()
        # Count the measured (post-initialisation) tasks, as Table II does.
        main = [t for ph in program.phases[program.warmup_phases :] for t in ph]
        tasks = len(main)
        avg_kb = (
            sum(t.footprint_bytes() for t in main) / tasks / 1024 if tasks else 0
        )
        rows.append(
            [
                wl.paper.bench,
                wl.paper.problem,
                f"{wl.paper.input_mb:.2f}",
                f"{footprint / 1024 / 1024:.2f}",
                f"{wl.paper.num_tasks}",
                f"{tasks}",
                f"{wl.paper.avg_task_kb:.0f}",
                f"{avg_kb:.1f}",
            ]
        )
    return rows


def rrt_occupancy_report(results: Results) -> dict[str, dict[str, float]]:
    """Section V-E: mean/max RRT occupancy per benchmark (TD-NUCA runs)."""
    out = {}
    for b in _benches(results):
        r = results.get((b, "tdnuca"))
        if r is None or r.runtime is None:
            continue
        out[b] = {
            "mean": r.runtime.mean_rrt_occupancy,
            "max": float(r.runtime.occupancy_max),
        }
    return out


def flush_overhead_report(results: Results) -> dict[str, float]:
    """Section V-E: fraction of execution time spent flushing (TD-NUCA)."""
    out = {}
    for b in _benches(results):
        r = results.get((b, "tdnuca"))
        if r is None or r.isa is None:
            continue
        total_busy = sum(r.execution.busy_cycles) or 1
        out[b] = r.isa.flush_cycles / total_busy
    return out


def runtime_overhead_report(results: Results) -> dict[str, float]:
    """Section V-E: runtime-extension overhead — slowdown of the
    extensions-on/ISA-off variant relative to plain S-NUCA."""
    out = {}
    for b in _benches(results):
        base = results.get((b, "snuca"))
        noisa = results.get((b, "tdnuca-noisa"))
        if base is None or noisa is None:
            continue
        out[b] = noisa.makespan / base.makespan - 1.0
    return out
