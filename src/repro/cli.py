"""Command-line interface.

    python -m repro list                      # benchmarks and policies
    python -m repro config [--scale N]        # print the machine (Table I)
    python -m repro run lu tdnuca [...]       # one experiment, full stats
    python -m repro run stress-8x8            # run a curated scenario
    python -m repro run my-scenario.yaml      # ... or a scenario file
    python -m repro scenario list             # the curated library
    python -m repro scenario validate *.yaml  # schema-check scenario files
    python -m repro trace lu tdnuca --out t.json  # traced run + heatmaps
    python -m repro figures [...]             # the paper's figures 3, 8-14
    python -m repro sweep --out results.json  # archive a suite as JSON
    python -m repro sweep --resume DIR        # finish an interrupted sweep
    python -m repro serve --port 8642         # simulation-as-a-service
    python -m repro submit lu tdnuca          # run via the server (cached)
    python -m repro submit gridlock-16x16     # submit a scenario

Scale is given as ``--scale N`` meaning capacities at 1/N of Table I
(default 64, the calibrated experiment scale); ``--mesh WxH`` /
``--cluster WxH`` scale the machine out (8x8 and 16x16 meshes pick their
calibrated latency tables).  Every simulation command is a thin shell
over :class:`repro.api.Session`, and every way of describing a run —
flags, scenario file, library name, service submission — compiles
through :class:`repro.scenario.Scenario`, so fingerprints agree.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.api import Session, run_scenario
from repro.experiments import figures
from repro.obs.observer import DEFAULT_SAMPLE_EVERY
from repro.scenario import ScenarioError, load_scenario, scenario_names
from repro.scenario.model import MachineSpec, Scenario, _parse_geometry
from repro.sim.machine import POLICIES
from repro.stats.report import fault_report_rows, format_table
from repro.workloads.registry import get_workload, workload_names

__all__ = ["main", "build_parser"]

FIGURE_BUILDERS = {
    "fig3": figures.fig3_classification,
    "fig8": figures.fig8_speedup,
    "fig9": figures.fig9_llc_accesses,
    "fig10": figures.fig10_hit_ratio,
    "fig11": figures.fig11_nuca_distance,
    "fig12": figures.fig12_data_movement,
    "fig13": figures.fig13_llc_energy,
    "fig14": figures.fig14_noc_energy,
    "fig15": figures.fig15_bypass_only,
}


def build_parser() -> argparse.ArgumentParser:
    import repro

    parser = argparse.ArgumentParser(
        prog="repro",
        description="TD-NUCA (SC'22) reproduction: runtime-driven NUCA management.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {repro.__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks and policies")

    p_config = sub.add_parser("config", help="print the machine configuration")
    _add_scale(p_config)

    p_run = sub.add_parser(
        "run",
        help="run one (workload, policy) experiment, or a scenario by "
        "library name / file path",
    )
    p_run.add_argument(
        "workload", type=_workload_or_scenario,
        help="benchmark name, curated scenario name, or scenario file",
    )
    p_run.add_argument(
        "policy", type=_policy_name, nargs="?", default=None,
        help="NUCA policy (omit when running a scenario)",
    )
    _add_scale(p_run)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--json", action="store_true", help="emit JSON stats")
    p_run.add_argument(
        "--faults",
        default="",
        metavar="SPEC",
        help="fault schedule, e.g. "
        "'bank:5@task=100,link:3-7@task=250,dram:transient:p=1e-4'",
    )
    p_run.add_argument(
        "--strict",
        action="store_true",
        help="check machine invariants after every task (graceful-"
        "degradation proof; aborts on the first violation)",
    )
    p_run.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record an event trace and write Chrome/Perfetto JSON to FILE",
    )
    p_run.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="write a resumable snapshot every N completed tasks",
    )
    p_run.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="checkpoint and stop (exit 75) after this much wall time",
    )
    p_run.add_argument(
        "--checkpoint-to", default=None, metavar="FILE",
        help="snapshot path (default <workload>__<policy>__s<seed>.snap); "
        "also makes SIGTERM/SIGINT checkpoint-then-exit-75",
    )
    p_run.add_argument(
        "--resume-from", default=None, metavar="FILE",
        help="restore the run from a snapshot and continue byte-identically",
    )

    p_trace = sub.add_parser(
        "trace",
        help="run one experiment with tracing on; write a Chrome/Perfetto "
        "trace and print bank/link heatmaps",
    )
    p_trace.add_argument("workload", choices=workload_names())
    p_trace.add_argument("policy", choices=list(POLICIES))
    _add_scale(p_trace)
    p_trace.add_argument(
        "--out", required=True, metavar="FILE",
        help="Chrome/Perfetto trace JSON path (open at ui.perfetto.dev)",
    )
    p_trace.add_argument(
        "--events", default=None, metavar="FILE",
        help="also write the flat JSONL event log to FILE",
    )
    p_trace.add_argument(
        "--sample-every", type=int, default=DEFAULT_SAMPLE_EVERY, metavar="N",
        help="timeline sampling period in completed tasks (default "
        "%(default)s)",
    )
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument(
        "--faults", default="", metavar="SPEC",
        help="fault schedule (see 'repro run --faults')",
    )
    p_trace.add_argument(
        "--strict", action="store_true",
        help="check machine invariants after every task",
    )

    p_fig = sub.add_parser("figures", help="run the suite and print figures")
    _add_scale(p_fig)
    p_fig.add_argument(
        "--only",
        choices=sorted(FIGURE_BUILDERS),
        nargs="*",
        help="subset of figures (default: all)",
    )
    p_fig.add_argument(
        "--workloads", nargs="*", choices=workload_names(), help="subset"
    )
    p_fig.add_argument("--chart", action="store_true", help="ASCII bar charts")
    p_fig.add_argument("--seed", type=int, default=0)

    p_sweep = sub.add_parser("sweep", help="run the suite, write JSON results")
    _add_scale(p_sweep)
    p_sweep.add_argument(
        "--out", default=None, help="output JSON path (required unless --resume)"
    )
    p_sweep.add_argument(
        "--policies", nargs="*", choices=list(POLICIES), default=None
    )
    p_sweep.add_argument(
        "--workloads", nargs="*", choices=workload_names(), default=None,
        help="subset of benchmarks (default: all)",
    )
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument(
        "--faults", default="", metavar="SPEC",
        help="fault schedule applied to every run (see 'repro run --faults')",
    )
    p_sweep.add_argument(
        "--strict", action="store_true",
        help="check machine invariants after every task in every run",
    )
    p_sweep.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="parallel worker processes (N>1 isolates each run; default 1)",
    )
    p_sweep.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock limit (implies process isolation)",
    )
    p_sweep.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="retries per job for transient failures (default 1)",
    )
    p_sweep.add_argument(
        "--run-dir", default=None, metavar="DIR",
        help="checkpoint directory (default: <out>.d) — one JSON shard per "
        "finished job plus a manifest, enabling --resume",
    )
    p_sweep.add_argument(
        "--resume", default=None, metavar="DIR",
        help="resume the sweep checkpointed in DIR: skip finished shards, "
        "re-run only failed/missing jobs, then merge",
    )
    p_sweep.add_argument(
        "--trace", default=None, metavar="DIR",
        help="trace every job and write one Chrome trace JSON per "
        "(workload, policy) into DIR",
    )
    p_sweep.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="periodic per-job snapshots every N completed tasks",
    )
    p_sweep.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="sweep wall-clock budget: in-flight jobs checkpoint and the "
        "sweep exits 75, resumable with --resume",
    )

    p_cmp = sub.add_parser(
        "compare", help="diff two sweep JSON files (regression check)"
    )
    p_cmp.add_argument("old", help="baseline sweep JSON")
    p_cmp.add_argument("new", help="candidate sweep JSON")
    p_cmp.add_argument("--tolerance", type=float, default=0.02)

    p_serve = sub.add_parser(
        "serve", help="run the simulation job server (asyncio, stdlib-only)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8642,
        help="listening port; 0 picks a free one (default %(default)s)",
    )
    p_serve.add_argument(
        "--cache-dir", default="service-cache", metavar="DIR",
        help="content-addressed result cache (default %(default)s)",
    )
    p_serve.add_argument(
        "--spool-dir", default="service-spool", metavar="DIR",
        help="checkpoint spool for preempted/evicted jobs "
        "(default %(default)s)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="concurrent simulation workers (default %(default)s)",
    )
    p_serve.add_argument(
        "--max-pending", type=int, default=32, metavar="N",
        help="queue depth at which the breaker sheds load with 503 "
        "(default %(default)s)",
    )
    p_serve.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock budget (jobs past it fail with a typed "
        "timeout; their checkpoint survives for resubmission)",
    )
    p_serve.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="retries per job for transient failures (default %(default)s)",
    )
    p_serve.add_argument(
        "--evict-after", type=float, default=None, metavar="SECONDS",
        help="time-slice: preempt a running job at its next task boundary "
        "after this long and requeue it behind waiting work",
    )
    p_serve.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="also snapshot running jobs every N completed tasks, so even "
        "kill -9 resumes from the last snapshot",
    )
    p_serve.add_argument(
        "--drain-grace", type=float, default=10.0, metavar="SECONDS",
        help="SIGTERM: wait this long for in-flight jobs to checkpoint "
        "before exiting 75 (default %(default)s)",
    )
    p_serve.add_argument(
        "--worker-mem-mb", type=int, default=None, metavar="MB",
        help="RLIMIT_AS for each worker process; a leaking simulation "
        "gets MemoryError instead of OOM-killing the host",
    )
    p_serve.add_argument(
        "--lease-timeout", type=float, default=30.0, metavar="SECONDS",
        help="kill a worker whose heartbeat goes silent this long and "
        "requeue its job (default %(default)s)",
    )
    p_serve.add_argument(
        "--poison-after", type=int, default=3, metavar="N",
        help="quarantine a job after it kills N worker processes "
        "(default %(default)s)",
    )
    p_serve.add_argument(
        "--fleet-dir", default=None, metavar="DIR",
        help="join the fleet coordinated through this shared directory: "
        "N servers over one fleet dir act as one logical service "
        "(shared result store, lease-fenced job ownership, work "
        "stealing, reclamation of dead hosts' jobs)",
    )
    p_serve.add_argument(
        "--host-id", default=None, metavar="ID",
        help="this host's fleet identity (default <hostname>-<pid>)",
    )
    p_serve.add_argument(
        "--host-lease-timeout", type=float, default=15.0, metavar="SECONDS",
        help="peers treat this host as suspect after this much observed "
        "heartbeat silence, and reclaim its jobs after twice it "
        "(default %(default)s)",
    )

    p_fleet = sub.add_parser(
        "fleet", help="inspect a fleet directory from the filesystem alone"
    )
    fleet_sub = p_fleet.add_subparsers(dest="fleet_cmd", required=True)
    p_fleet_status = fleet_sub.add_parser(
        "status",
        help="print the host table, claims, queue shards and store stats "
        "— works on a dead fleet, no server needed",
    )
    p_fleet_status.add_argument("fleet_dir", metavar="DIR")
    p_fleet_status.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    p_scen = sub.add_parser(
        "scenario", help="list, show and validate declarative scenarios"
    )
    scen_sub = p_scen.add_subparsers(dest="scenario_cmd", required=True)
    scen_sub.add_parser("list", help="list the curated scenario library")
    p_scen_show = scen_sub.add_parser(
        "show", help="print a scenario (resolved) and its compiled machine"
    )
    p_scen_show.add_argument("name", help="library name or file path")
    p_scen_val = scen_sub.add_parser(
        "validate", help="schema-check scenario files; exit 1 on any error"
    )
    p_scen_val.add_argument("files", nargs="+", metavar="FILE",
                            help="scenario files (or library names)")

    p_sub = sub.add_parser(
        "submit",
        help="submit a run (or a scenario) to a 'repro serve' server and wait",
    )
    p_sub.add_argument(
        "workload", type=_workload_or_scenario,
        help="benchmark name, curated scenario name, or scenario file",
    )
    p_sub.add_argument(
        "policy", type=_policy_name, nargs="?", default=None,
        help="NUCA policy (omit when submitting a scenario)",
    )
    _add_scale(p_sub)
    p_sub.add_argument("--seed", type=int, default=0)
    p_sub.add_argument(
        "--faults", default="", metavar="SPEC",
        help="fault schedule (see 'repro run --faults')",
    )
    p_sub.add_argument("--strict", action="store_true")
    p_sub.add_argument("--host", default="127.0.0.1")
    p_sub.add_argument("--port", type=int, default=8642)
    p_sub.add_argument("--json", action="store_true", help="emit JSON stats")
    p_sub.add_argument(
        "--follow", action="store_true",
        help="stream the job's progress events (NDJSON) to stderr",
    )
    p_sub.add_argument(
        "--no-wait", action="store_true",
        help="print the job id and return without waiting for the result",
    )
    p_sub.add_argument(
        "--wait-timeout", type=float, default=600.0, metavar="SECONDS",
        help="give up waiting after this long (default %(default)s)",
    )

    p_tdg = sub.add_parser(
        "tdg", help="export a workload's task dependency graph as DOT"
    )
    p_tdg.add_argument("workload", choices=workload_names(include_extra=True))
    _add_scale(p_tdg)
    p_tdg.add_argument("--out", required=True, help="output .dot path")
    p_tdg.add_argument("--max-tasks", type=int, default=200)
    return parser


def _workload_or_scenario(value: str) -> str:
    """Argparse type for positionals accepting a workload OR a scenario.

    Unknown names fail at parse time (SystemExit 2) with both registries
    listed — a typo never reaches the simulation layer.
    """
    if value in workload_names(include_extra=True):
        return value
    if value.endswith((".yaml", ".yml", ".json")) or "/" in value:
        return value  # scenario file; existence is checked by the command
    known = scenario_names()
    if value in known:
        return value
    raise argparse.ArgumentTypeError(
        f"{value!r} is neither a workload ({', '.join(workload_names())}) "
        f"nor a scenario file/name"
        + (f" ({', '.join(known)})" if known else "")
    )


def _policy_name(value: str) -> str:
    if value in POLICIES:
        return value
    raise argparse.ArgumentTypeError(
        f"unknown policy {value!r}; valid policies: {', '.join(POLICIES)}"
    )


def _geometry(value: str):
    try:
        return _parse_geometry(value, "geometry")
    except ScenarioError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _add_scale(parser: argparse.ArgumentParser) -> None:
    from repro.sim.kernels import KERNEL_NAMES

    parser.add_argument(
        "--scale",
        type=int,
        default=64,
        metavar="N",
        help="capacities at 1/N of Table I (default 64)",
    )
    parser.add_argument(
        "--kernel",
        choices=list(KERNEL_NAMES),
        default="auto",
        help="simulation backend (results are byte-identical across "
        "kernels; REPRO_KERNEL overrides; default %(default)s)",
    )
    parser.add_argument(
        "--mesh", type=_geometry, default=None, metavar="WxH",
        help="mesh geometry, e.g. 8x8 or 16x16 (default 4x4; larger "
        "meshes use their calibrated latency tables)",
    )
    parser.add_argument(
        "--cluster", type=_geometry, default=None, metavar="WxH",
        help="replication-cluster geometry (default 2x2)",
    )


def _machine_spec(args) -> MachineSpec:
    mesh = getattr(args, "mesh", None) or (4, 4)
    cluster = getattr(args, "cluster", None) or (2, 2)
    return MachineSpec(
        scale=args.scale,
        mesh_width=mesh[0],
        mesh_height=mesh[1],
        cluster_width=cluster[0],
        cluster_height=cluster[1],
    )


def _cfg(args):
    # Flags compile through the same Scenario path as YAML files and
    # service specs — one canonical run description, identical sha256.
    scenario = Scenario(
        name="cli",
        machine=_machine_spec(args),
        kernel=getattr(args, "kernel", "auto"),
    )
    return scenario.to_config()


def cmd_list(args) -> int:
    print("benchmarks (Table II):")
    for name in workload_names():
        paper = get_workload(name).paper
        print(f"  {name:10s} {paper.problem}")
    print("extra workloads:")
    for name in workload_names(include_extra=True):
        if name not in workload_names():
            print(f"  {name:10s} {get_workload(name).paper.problem}")
    print("\npolicies:")
    for pol in POLICIES:
        print(f"  {pol}")
    return 0


def cmd_config(args) -> int:
    rows = figures.table1_rows(_cfg(args))
    print(format_table(["parameter", "value"], rows, "machine configuration"))
    return 0


def _run_result_rows(result) -> list[list[str]]:
    m = result.machine
    rows = [
        ["makespan (cycles)", f"{result.makespan:,}"],
        ["tasks executed", f"{result.execution.tasks_executed:,}"],
        ["LLC accesses", f"{m.llc_accesses:,}"],
        ["LLC hit ratio", f"{m.llc_hit_ratio:.2%}"],
        ["NUCA distance (hops)", f"{m.mean_nuca_distance:.2f}"],
        ["NoC router-bytes", f"{m.router_bytes:,}"],
        ["DRAM reads / writes", f"{m.dram_reads:,} / {m.dram_writes:,}"],
        ["LLC dynamic energy (pJ)", f"{m.energy.llc:,.0f}"],
        ["NoC dynamic energy (pJ)", f"{m.energy.noc:,.0f}"],
    ]
    if m.faults is not None:
        rows += fault_report_rows(m.faults)
    if "invariants" in m.extra:
        inv = m.extra["invariants"]
        rows.append(
            [
                "invariant checks (violations)",
                f"{inv['checks_run']:,} (+{inv['full_sweeps']} full sweeps, "
                f"{inv['violations']} violations)",
            ]
        )
    if result.runtime is not None:
        rows += [
            ["bypass / local / replicate",
             f"{result.runtime.bypass_decisions} / "
             f"{result.runtime.local_decisions} / "
             f"{result.runtime.replicate_decisions}"],
            ["RRT occupancy mean / max",
             f"{result.runtime.mean_rrt_occupancy:.1f} / "
             f"{result.runtime.occupancy_max}"],
        ]
    if "context_switches" in result.extra:
        rows.append(
            ["RRT context switches", f"{result.extra['context_switches']:,}"]
        )
    return rows


def _cmd_run_scenario(args) -> int:
    """``repro run <scenario>``: execute a scenario file or library name."""
    import dataclasses
    import json

    from repro.stats.report import sweep_summary_rows

    if args.policy is not None:
        print(
            "error: a scenario carries its own policy; "
            "'repro run SCENARIO' takes no policy argument",
            file=sys.stderr,
        )
        return 2
    # A scenario is self-contained: machine geometry, faults, seed and
    # trace/checkpoint options all come from the document.  Flags that
    # would silently lose to the scenario are rejected, not ignored —
    # --kernel (an execution detail, never part of the fingerprint) and
    # --json are the only overrides.
    overridden = [
        flag
        for flag, active in (
            ("--scale", args.scale != 64),
            ("--mesh", getattr(args, "mesh", None) is not None),
            ("--cluster", getattr(args, "cluster", None) is not None),
            ("--seed", args.seed != 0),
            ("--faults", bool(args.faults)),
            ("--strict", args.strict),
            ("--trace", args.trace is not None),
            ("--checkpoint-every", bool(args.checkpoint_every)),
            ("--deadline", args.deadline is not None),
            ("--checkpoint-to", args.checkpoint_to is not None),
            ("--resume-from", args.resume_from is not None),
        )
        if active
    ]
    if overridden:
        print(
            f"error: {', '.join(overridden)} cannot override a scenario; "
            "edit the scenario document instead "
            f"(see 'repro scenario show {args.workload}')",
            file=sys.stderr,
        )
        return 2
    try:
        scenario = load_scenario(args.workload)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    kernel = getattr(args, "kernel", "auto")
    if kernel != "auto":
        scenario = dataclasses.replace(scenario, kernel=kernel)
    t0 = time.time()
    outcome = run_scenario(scenario)
    elapsed = time.time() - t0
    if scenario.kind == "sweep":
        print(format_table(["metric", "value"], sweep_summary_rows(outcome),
                           f"scenario {scenario.name} (sweep)"))
        return 1 if outcome.failures else 0
    if args.json:
        print(json.dumps(outcome.to_dict(), indent=2, sort_keys=True))
        return 0
    print(
        format_table(
            ["metric", "value"], _run_result_rows(outcome),
            f"scenario {scenario.name}: {outcome.workload} under "
            f"{outcome.policy}",
        )
    )
    if scenario.trace.out and outcome.traced:
        print(f"\nwrote {scenario.trace.out} — open at https://ui.perfetto.dev")
    print(f"\nsimulated in {elapsed:.1f}s wall time")
    return 0


def _resume_command(args, snapshot) -> str:
    """The ``repro run`` line that resumes ``snapshot``: every flag that
    enters the snapshot's ``config_sha256``, shell-quoted."""
    import shlex

    argv = ["repro", "run", args.workload, args.policy,
            "--scale", str(args.scale), "--seed", str(args.seed)]
    for flag, geometry in (("--mesh", args.mesh), ("--cluster", args.cluster)):
        if geometry:
            argv += [flag, f"{geometry[0]}x{geometry[1]}"]
    if args.faults:
        argv += ["--faults", args.faults]
    if args.strict:
        argv.append("--strict")
    return shlex.join(argv + ["--resume-from", str(snapshot)])


def cmd_run(args) -> int:
    import signal

    from repro.snapshot import Checkpointer, EXIT_PREEMPTED, PreemptedError

    if args.workload not in workload_names(include_extra=True):
        return _cmd_run_scenario(args)
    if args.policy is None:
        print(
            f"error: 'repro run {args.workload}' needs a policy "
            f"({', '.join(POLICIES)})",
            file=sys.stderr,
        )
        return 2

    checkpointing = bool(
        args.checkpoint_every or args.deadline is not None
        or args.checkpoint_to or args.resume_from
    )
    ck = None
    old_handlers = {}
    if checkpointing:
        snap_path = args.checkpoint_to or args.resume_from or (
            f"{args.workload}__{args.policy}__s{args.seed}.snap"
        )
        deadline = (
            time.monotonic() + args.deadline
            if args.deadline is not None else None
        )
        ck = Checkpointer(
            snap_path, every=args.checkpoint_every, deadline=deadline
        )
        # SIGTERM/SIGINT mean "snapshot at the next task boundary, then
        # exit 75" — the watchdog contract a job scheduler relies on.
        try:
            for signum in (signal.SIGTERM, signal.SIGINT):
                old_handlers[signum] = signal.signal(
                    signum, lambda s, f: ck.request_preempt()
                )
        except ValueError:  # pragma: no cover - non-main-thread embedding
            pass

    session = Session(_cfg(args), seed=args.seed)
    t0 = time.time()
    try:
        result = session.run(
            args.workload,
            args.policy,
            trace=bool(args.trace),
            faults=args.faults,
            strict=args.strict,
            checkpoint=ck,
            resume_from=args.resume_from,
        )
    except PreemptedError as exc:
        print(
            f"preempted after {exc.tasks_completed} tasks; resume with:\n"
            f"  {_resume_command(args, exc.path)}",
            file=sys.stderr,
        )
        return EXIT_PREEMPTED
    finally:
        for signum, handler in old_handlers.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, TypeError):  # pragma: no cover
                pass
    elapsed = time.time() - t0
    if args.trace:
        result.write_chrome_trace(args.trace)
    if args.json:
        import json

        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 0
    print(
        format_table(
            ["metric", "value"], _run_result_rows(result),
            f"{args.workload} under {args.policy}",
        )
    )
    if args.trace:
        print(f"\nwrote {args.trace} — open at https://ui.perfetto.dev")
    print(f"\nsimulated in {elapsed:.1f}s wall time")
    return 0


def cmd_trace(args) -> int:
    from repro.obs.events import EventTrace

    session = Session(_cfg(args), seed=args.seed)
    t0 = time.time()
    result = session.run(
        args.workload,
        args.policy,
        trace=True,
        sample_every=args.sample_every,
        faults=args.faults,
        strict=args.strict,
    )
    elapsed = time.time() - t0
    result.write_chrome_trace(args.out)
    if args.events:
        result.write_event_log(args.events)
    sink = result.observer.sink
    recorded = sink.total if isinstance(sink, EventTrace) else len(result.events)
    dropped = sink.dropped if isinstance(sink, EventTrace) else 0
    rows = [
        ["makespan (cycles)", f"{result.makespan:,}"],
        ["tasks executed", f"{result.execution.tasks_executed:,}"],
        ["LLC hit ratio", f"{result.machine.llc_hit_ratio:.2%}"],
        ["events recorded", f"{recorded:,}"],
        ["events dropped (ring full)", f"{dropped:,}"],
        ["timeline samples", f"{result.timeline.num_samples:,}"],
    ]
    print(
        format_table(
            ["metric", "value"], rows,
            f"traced {args.workload} under {args.policy}",
        )
    )
    print()
    print(result.bank_heatmap())
    print()
    print(result.link_heatmap())
    print(f"\nwrote {args.out} — open at https://ui.perfetto.dev "
          "or chrome://tracing")
    if args.events:
        print(f"wrote {args.events} (JSONL event log)")
    print(f"simulated in {elapsed:.1f}s wall time")
    return 0


def cmd_figures(args) -> int:
    wanted = args.only or sorted(FIGURE_BUILDERS)
    policies = ["snuca", "rnuca", "tdnuca"]
    if "fig15" in wanted:
        policies.append("tdnuca-bypass-only")
    print(f"running the suite at scale 1/{args.scale} ...", file=sys.stderr)
    results = Session(_cfg(args), seed=args.seed).suite(
        workloads=args.workloads, policies=policies,
    )
    for key in wanted:
        fig = FIGURE_BUILDERS[key](results)
        print(fig.to_chart() if args.chart else fig.to_text())
        print()
    return 0


def cmd_sweep(args) -> int:
    from repro.experiments import harness
    from repro.experiments.serialize import sweep_to_json
    from repro.ioutils import atomic_write
    from repro.stats.report import sweep_summary_rows

    if args.resume:
        run_dir = args.resume
        manifest = harness.load_manifest(run_dir)
        req = manifest.get("request", {})
        scale = req.get("scale", args.scale)
        mesh = tuple(req.get("mesh") or (4, 4))
        cluster = tuple(req.get("cluster") or (2, 2))
        # Rebuild through Scenario so a resumed sweep compiles the exact
        # config (geometry, latency table, faults) the original one did.
        # The kernel is an execution strategy, not part of the sweep's
        # identity — the current invocation's choice applies on resume.
        cfg = Scenario(
            name="sweep-resume",
            machine=MachineSpec(
                scale=scale,
                mesh_width=mesh[0], mesh_height=mesh[1],
                cluster_width=cluster[0], cluster_height=cluster[1],
            ),
            faults=req.get("faults", ""),
            strict=bool(req.get("strict")),
            kernel=getattr(args, "kernel", "auto"),
        ).to_config()
        jobs = [harness.Job(wl, pol, seed) for wl, pol, seed in manifest["jobs"]]
        out = args.out or req.get("out")
        if not out:
            print("error: the manifest records no output path; pass --out")
            return 2
        seed = req.get("seed", 0)
        request = req
    else:
        if not args.out:
            print("error: --out is required unless resuming with --resume DIR")
            return 2
        cfg = Scenario(
            name="sweep",
            machine=_machine_spec(args),
            faults=args.faults,
            strict=args.strict,
            kernel=getattr(args, "kernel", "auto"),
        ).to_config()
        workloads = args.workloads or workload_names()
        policies = args.policies or ["snuca", "rnuca", "tdnuca"]
        jobs = [
            harness.Job(wl, pol, args.seed)
            for wl in workloads
            for pol in policies
        ]
        out = args.out
        run_dir = args.run_dir or out + ".d"
        seed = args.seed
        request = {
            "scale": args.scale,
            "workloads": workloads,
            "policies": policies,
            "seed": args.seed,
            "faults": args.faults,
            "strict": args.strict,
            "out": out,
        }
        if args.mesh:
            request["mesh"] = list(args.mesh)
        if args.cluster:
            request["cluster"] = list(args.cluster)

    total = len(jobs)
    progress = {"done": 0}

    def on_event(kind: str, job: harness.Job, detail: str) -> None:
        if kind in ("ok", "failed", "timeout", "skipped", "preempted",
                    "interrupted"):
            progress["done"] += 1
            print(
                f"[{progress['done']}/{total}] {kind:8s} {job.label}  {detail}",
                file=sys.stderr,
            )
        elif kind in ("retry", "resumed"):
            print(f"          {kind:8s} {job.label}  {detail}", file=sys.stderr)

    session = Session(cfg)
    outcome = session.sweep(
        plan=jobs,
        jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
        run_dir=run_dir,
        resume=bool(args.resume),
        request=request,
        on_event=on_event,
        trace_dir=args.trace,
        checkpoint_every=args.checkpoint_every,
        deadline=args.deadline,
    )
    meta = {
        "config_sha256": harness.config_fingerprint(cfg),
        "seed": seed,
        "scale": request.get("scale"),
        "wall_time_s": round(outcome.wall_time, 3),
    }
    with atomic_write(out) as fh:
        fh.write(
            sweep_to_json(
                outcome.result_dicts(),
                [f.to_dict() for f in outcome.failures],
                meta,
            )
        )
    print(format_table(["metric", "value"], sweep_summary_rows(outcome),
                       "sweep summary"))
    print(f"wrote {outcome.ok} results to {out} (checkpoints in {run_dir})")
    if outcome.failures:
        print(f"{outcome.failed} job(s) failed — fix or re-run with "
              f"'repro sweep --resume {run_dir}'")
    if outcome.interrupted or outcome.preempted:
        from repro.snapshot import EXIT_PREEMPTED

        print(
            f"sweep preempted with {len(outcome.preempted)} job(s) "
            f"checkpointed — continue with 'repro sweep --resume {run_dir}'"
        )
        return EXIT_PREEMPTED
    return 1 if outcome.failures else 0


def cmd_compare(args) -> int:
    from repro.experiments.compare import compare_result_sets
    from repro.experiments.serialize import SchemaVersionError, load_sweep

    docs = {}
    for label, path in (("old", args.old), ("new", args.new)):
        with open(path) as fh:
            text = fh.read()
        try:
            docs[label] = load_sweep(text, path=path)
        except SchemaVersionError as exc:
            print(
                f"{path}: schema version mismatch — the file was written "
                f"under schema {exc.found!r}, this tool reads {exc.expected}"
            )
            return 2
        except ValueError as exc:
            print(f"{path}: {exc}")
            return 2
    for label in ("old", "new"):
        if docs[label].failures:
            print(
                f"note: the {label} sweep records "
                f"{len(docs[label].failures)} failed run(s)"
            )
    old, new = docs["old"].runs, docs["new"].runs
    deltas = compare_result_sets(old, new, tolerance=args.tolerance)
    if not deltas:
        print(f"no deviations beyond {args.tolerance:.1%} across {len(new)} runs")
        return 0
    for d in deltas:
        print(d)
    print(f"\n{len(deltas)} deviation(s) beyond {args.tolerance:.1%}")
    return 1


def cmd_serve(args) -> int:
    import asyncio
    from pathlib import Path

    from repro.service.server import ServiceServer

    spool_dir = args.spool_dir
    if args.fleet_dir is not None and spool_dir == "service-spool":
        # Fleet mode defaults the spool INTO the fleet dir: snapshots are
        # request_key-addressed, so a survivor resumes a dead peer's job
        # from the shared spool with zero extra plumbing.  An explicit
        # --spool-dir opts out (private snapshots, no cross-host resume).
        spool_dir = str(Path(args.fleet_dir) / "spool")
    server = ServiceServer(
        args.host,
        args.port,
        cache_dir=args.cache_dir,
        spool_dir=spool_dir,
        workers=args.workers,
        max_pending=args.max_pending,
        timeout=args.timeout,
        retries=args.retries,
        evict_after=args.evict_after,
        checkpoint_every=args.checkpoint_every,
        drain_grace=args.drain_grace,
        worker_mem_mb=args.worker_mem_mb,
        lease_timeout=args.lease_timeout,
        poison_after=args.poison_after,
        fleet_dir=args.fleet_dir,
        host_id=args.host_id,
        host_lease_timeout=args.host_lease_timeout,
    )

    async def run() -> int:
        await server.start()
        print(f"listening on {server.host}:{server.port}", flush=True)
        code = await server.serve_forever()
        stats = server.queue.stats()
        pool = stats.get("pool") or {}
        fleet_bits = ""
        if server.fleet is not None:
            fs = server.fleet.status()
            fleet_bits = (
                f" reclaims={fs['reclaims']} steals={fs['steals']} "
                f"fenced={fs['fenced_writes']} "
                f"adopted={stats.get('adopted', 0)}"
            )
        print(
            "drained: "
            f"completed={stats['completed']} failed={stats['failed']} "
            f"preempted={stats['preempted']} "
            f"worker_deaths={stats['worker_deaths']} "
            f"restarts={pool.get('restarts', 0)} "
            f"lease_expired={pool.get('lease_expired', 0)} "
            f"workers_alive={pool.get('alive', 0)} "
            f"concurrency={pool.get('concurrency', 0)} "
            f"poisoned={stats['poisoned']}"
            f"{fleet_bits}",
            flush=True,
        )
        return code

    return asyncio.run(run())


def cmd_fleet(args) -> int:
    import json

    from repro.service.fleet import fleet_status

    try:
        status = fleet_status(args.fleet_dir)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    print(f"fleet: {status['fleet_dir']}")
    hosts = status["hosts"]
    print(f"\nhosts ({len(hosts)}):")
    if hosts:
        print(
            f"  {'HOST':<28} {'PID':>7} {'ADDR':<21} {'SEQ':>6} "
            f"{'LEASE':>6} {'STAMPED':>9}"
        )
        for h in hosts:
            print(
                f"  {str(h['host_id']):<28} {str(h['pid'] or '?'):>7} "
                f"{str(h['addr'] or '-'):<21} {str(h['seq']):>6} "
                f"{str(h['lease_timeout'] or '-'):>6} "
                f"{h['stamped_age_s']:>8.1f}s"
            )
        print(
            "  (stamped ages are wall-clock diagnostics; live liveness "
            "uses heartbeat observation)"
        )
    claims = status["claims"]
    print(f"\nclaims in flight ({len(claims)}):")
    for c in claims:
        owner = c["owner"] or "(released)"
        print(
            f"  {c['key']}  {c['label']:<24} owner={owner} "
            f"epoch={c['epoch']} host_deaths={c['host_deaths']}"
        )
    queued = status["queued"]
    depth = sum(queued.values())
    print(f"\nqueued jobs ({depth}):")
    for host_name in sorted(queued):
        if queued[host_name]:
            print(f"  {host_name}: {queued[host_name]}")
    print(
        f"\nshared store: {status['results']} result(s), "
        f"{status['snapshots']} spool snapshot(s)"
    )
    if status["poison"]:
        print(f"poisoned keys ({len(status['poison'])}):")
        for key in status["poison"]:
            print(f"  {key}")
    return 0


def cmd_submit(args) -> int:
    import json
    import threading

    from repro.service.client import ServiceClient
    from repro.service.envelope import ServiceError
    from repro.snapshot import EXIT_PREEMPTED

    if args.workload not in workload_names(include_extra=True):
        import dataclasses

        if args.policy is not None:
            print(
                "error: a scenario carries its own policy; "
                "'repro submit SCENARIO' takes no policy argument",
                file=sys.stderr,
            )
            return 2
        overridden = [
            flag
            for flag, active in (
                ("--scale", args.scale != 64),
                ("--mesh", getattr(args, "mesh", None) is not None),
                ("--cluster", getattr(args, "cluster", None) is not None),
                ("--seed", args.seed != 0),
                ("--faults", bool(args.faults)),
                ("--strict", args.strict),
            )
            if active
        ]
        if overridden:
            print(
                f"error: {', '.join(overridden)} cannot override a "
                "scenario; edit the scenario document instead "
                f"(see 'repro scenario show {args.workload}')",
                file=sys.stderr,
            )
            return 2
        try:
            scenario = load_scenario(args.workload)
        except ScenarioError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if scenario.kind == "multiprog":
            print(
                f"error: scenario {scenario.name!r} is multiprogrammed; "
                "the service caches per-(workload, policy) cells, so run "
                f"it locally: repro run {args.workload}",
                file=sys.stderr,
            )
            return 2
        kernel = getattr(args, "kernel", "auto")
        if kernel != "auto":
            scenario = dataclasses.replace(scenario, kernel=kernel)
        label = f"scenario {scenario.name}"
    elif args.policy is None:
        print(
            f"error: 'repro submit {args.workload}' needs a policy "
            f"({', '.join(POLICIES)})",
            file=sys.stderr,
        )
        return 2
    else:
        # Flags compile to the same Scenario a file would hold, so the
        # server sees the whole machine (geometry included).
        scenario = Scenario(
            name=f"{args.workload}-{args.policy}",
            workload=args.workload,
            policy=args.policy,
            machine=_machine_spec(args),
            faults=args.faults,
            strict=args.strict,
            kernel=getattr(args, "kernel", "auto"),
            seed=args.seed,
        )
        label = f"{args.workload}/{args.policy}"

    client = ServiceClient(args.host, args.port)
    try:
        job = client.submit_scenario(scenario)
        if args.no_wait:
            print(job["id"])
            return 0
        follower = None
        if args.follow:
            def _follow() -> None:
                try:
                    for event in client.iter_events(job["id"]):
                        print(json.dumps(event, sort_keys=True),
                              file=sys.stderr, flush=True)
                except (ServiceError, OSError):  # server drained mid-stream
                    pass

            follower = threading.Thread(target=_follow, daemon=True)
            follower.start()
        final = client.wait(job["id"], timeout=args.wait_timeout)
        data = client.result(job["id"])
        if follower is not None:
            follower.join(timeout=5.0)
    except ServiceError as exc:
        print(f"error [{exc.type}]: {exc.message}", file=sys.stderr)
        return EXIT_PREEMPTED if exc.retryable else 1
    if args.json:
        print(json.dumps(data["result"], indent=2, sort_keys=True))
        return 0
    hit = "cache hit" if final.get("simulated", 0) == 0 else "simulated"
    status = (
        f"{label}: {final['state']} ({hit}, {final['attempts']} attempt(s), "
        f"{final['evictions']} eviction(s))"
    )
    if "runs" in data["result"]:  # sweep: one line per finished cell
        print(f"{status} — {len(data['result']['runs'])} cell(s)")
        for cell, run in sorted(data["result"]["runs"].items()):
            print(f"  {cell}: makespan {run['makespan_cycles']:,} cycles")
    else:
        print(f"{status} — makespan "
              f"{data['result']['makespan_cycles']:,} cycles")
    return 0


def cmd_scenario(args) -> int:
    from repro.scenario.loader import dump_scenario
    from repro.snapshot.format import config_sha256

    if args.scenario_cmd == "list":
        rows = []
        for name in scenario_names():
            try:
                sc = load_scenario(name)
            except ScenarioError as exc:
                rows.append([name, "-", f"INVALID: {exc}"])
                continue
            rows.append([name, sc.kind, sc.description or ""])
        if not rows:
            print("no curated scenarios found (scenarios/ is empty)")
            return 0
        print(format_table(["name", "kind", "description"], rows,
                           "curated scenario library"))
        return 0

    if args.scenario_cmd == "show":
        try:
            sc = load_scenario(args.name)
        except ScenarioError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(dump_scenario(sc), end="")
        cfg = sc.to_config()
        print(f"# kind: {sc.kind}")
        print(f"# machine: {cfg.num_cores} cores, "
              f"{cfg.mesh_width}x{cfg.mesh_height} mesh, "
              f"{cfg.llc_total_bytes / (1024 * 1024):g} MB LLC, "
              f"{cfg.rrt_entries}-entry RRT")
        print(f"# config_sha256: {config_sha256(cfg)}")
        return 0

    # validate: schema-check every file; exit 1 if any fails.
    failures = 0
    for path in args.files:
        try:
            sc = load_scenario(path)
        except ScenarioError as exc:
            failures += 1
            print(f"FAIL {path}: {exc}")
            continue
        print(f"ok   {path} ({sc.kind}: {sc.name})")
    if failures:
        print(f"\n{failures} of {len(args.files)} scenario(s) invalid")
    return 1 if failures else 0


def cmd_tdg(args) -> int:
    from repro.ioutils import atomic_write
    from repro.runtime.tdgviz import program_to_dot

    program = get_workload(args.workload).build(_cfg(args))
    dot = program_to_dot(program, max_tasks=args.max_tasks)
    with atomic_write(args.out) as fh:
        fh.write(dot)
    nodes = dot.count("label=")
    print(f"wrote {args.out} ({nodes} tasks; render with: dot -Tpdf {args.out})")
    return 0


_COMMANDS = {
    "list": cmd_list,
    "config": cmd_config,
    "run": cmd_run,
    "trace": cmd_trace,
    "figures": cmd_figures,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
    "serve": cmd_serve,
    "submit": cmd_submit,
    "fleet": cmd_fleet,
    "scenario": cmd_scenario,
    "tdg": cmd_tdg,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Downstream reader (e.g. `| head`) closed the pipe; exit quietly
        # with the conventional SIGPIPE status instead of a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
