"""The session facade: one documented entry point for running simulations.

:class:`Session` puts machine building, execution, sweeps and tracing
behind one object with keyword-only options::

    from repro import Session

    session = Session(scale=1 / 64)
    result = session.run("kmeans", "tdnuca", trace=True,
                         faults="bank:5@task=100")
    print(result.makespan, result.machine.llc_hit_ratio)
    result.write_chrome_trace("trace.json")   # open in ui.perfetto.dev
    print(result.bank_heatmap())

:class:`RunResult` wraps the classic
:class:`~repro.experiments.runner.ExperimentResult` (to which it delegates
every statistic attribute) together with the run's
:class:`~repro.obs.observer.Observer`, adding trace/timeline accessors and
exporters.  ``Session.sweep`` fronts the crash-tolerant harness the same
way and can write one Chrome trace per job.
"""

from __future__ import annotations

import functools
from dataclasses import replace
from pathlib import Path
from typing import Any

from repro.config import SystemConfig, scaled_config
from repro.experiments.runner import (
    ExperimentResult,
    build_runtime,
    default_config,
)
from repro.obs.events import DEFAULT_CAPACITY, EventTrace
from repro.obs.observer import DEFAULT_SAMPLE_EVERY, Observer
from repro.runtime.executor import Executor
from repro.runtime.scheduler import Scheduler
from repro.scenario import Scenario, load_scenario
from repro.sim.machine import POLICIES, build_machine
from repro.workloads.registry import get_workload

__all__ = ["Session", "RunResult", "run_scenario"]

#: policies a suite/sweep runs by default (the paper's three-way comparison).
DEFAULT_POLICIES = ("snuca", "rnuca", "tdnuca")


class RunResult:
    """One simulation's results plus (optionally) its observability data.

    Every attribute of the wrapped
    :class:`~repro.experiments.runner.ExperimentResult` (``machine``,
    ``execution``, ``makespan``, ``runtime``, ``isa``, ...) is reachable
    directly on the ``RunResult``, so existing reporting/figure code works
    on either type.
    """

    def __init__(self, experiment: ExperimentResult,
                 observer: Observer | None = None) -> None:
        self.experiment = experiment
        self.observer = observer

    def __getattr__(self, name: str) -> Any:
        # Only reached for names not set on the RunResult itself.
        return getattr(self.experiment, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        traced = self.observer is not None
        return (
            f"RunResult({self.experiment.workload}/{self.experiment.policy}, "
            f"traced={traced})"
        )

    # --- observability accessors ---------------------------------------

    @property
    def traced(self) -> bool:
        return self.observer is not None

    @property
    def events(self) -> list:
        """Retained trace events, oldest first ([] when untraced)."""
        return self.observer.events() if self.observer is not None else []

    @property
    def timeline(self):
        """The :class:`~repro.obs.timeline.IntervalTimeline` (or ``None``)."""
        return self.observer.timeline if self.observer is not None else None

    def _require_trace(self) -> Observer:
        if self.observer is None:
            raise ValueError(
                "this run was not traced; pass trace=True to Session.run"
            )
        return self.observer

    def write_chrome_trace(self, path) -> None:
        """Write a Chrome/Perfetto trace JSON for this run."""
        from repro.obs.export import write_chrome_trace

        obs = self._require_trace()
        write_chrome_trace(
            path, obs.events(), obs.timeline, meta=self._trace_meta()
        )

    def write_event_log(self, path) -> None:
        """Write the flat JSONL event log for this run."""
        from repro.obs.export import write_event_log

        obs = self._require_trace()
        write_event_log(path, obs.events(), meta=self._trace_meta())

    def bank_heatmap(self, **kwargs) -> str:
        """ASCII per-bank LLC load/hit-rate timeline heatmap."""
        from repro.stats.report import timeline_bank_heatmap

        obs = self._require_trace()
        if obs.timeline is None:
            raise ValueError("this run was traced without a timeline")
        return timeline_bank_heatmap(obs.timeline, **kwargs)

    def link_heatmap(self, **kwargs) -> str:
        """ASCII per-link NoC byte-load heatmap over the mesh floorplan."""
        from repro.stats.report import timeline_link_heatmap

        obs = self._require_trace()
        if obs.timeline is None:
            raise ValueError("this run was traced without a timeline")
        return timeline_link_heatmap(obs.timeline, obs.mesh, **kwargs)

    def _trace_meta(self) -> dict[str, Any]:
        return {
            "workload": self.experiment.workload,
            "policy": self.experiment.policy,
        }

    def to_dict(self) -> dict[str, Any]:
        """Flatten to the schema-3 result dict (with trace/timeline
        sections when the run was traced)."""
        from repro.experiments.serialize import result_to_dict

        obs = self.observer
        trace = None
        if obs is not None and isinstance(obs.sink, EventTrace):
            trace = obs.sink
        timeline = obs.timeline if obs is not None else None
        return result_to_dict(self.experiment, trace=trace, timeline=timeline)

    def stats_dict(self) -> dict[str, Any]:
        """Flatten to the *canonical untraced* result dict.

        Unlike :meth:`to_dict` this never attaches trace/timeline sections
        or resume markers, so the dict for a traced, resumed, or cached run
        is byte-identical (under sorted-key JSON) to a plain fresh run of
        the same configuration — the property the service's
        content-addressed result cache is built on.  Whether this run was
        resumed stays available via ``experiment.extra``.
        """
        from repro.experiments.serialize import result_to_dict

        out = result_to_dict(self.experiment)
        out.pop("resumed_from_task", None)
        return out


class Session:
    """A configured simulation context: build once, run many experiments.

    Exactly one of ``config`` or ``scale`` may be given; with neither, the
    calibrated 1/64 experiment scale is used.  All run options are
    keyword-only.
    """

    def __init__(
        self,
        config: SystemConfig | None = None,
        *,
        scale: float | None = None,
        seed: int = 0,
        kernel: str | None = None,
    ) -> None:
        if config is not None and scale is not None:
            raise ValueError("pass config or scale, not both")
        if config is None:
            config = scaled_config(scale) if scale is not None else default_config()
        if kernel is not None:
            # Execution backend only — byte-identical results are enforced
            # by the golden gate, so this never changes what a run returns.
            config = replace(config, kernel=kernel)
        config.validate()
        self.config = config
        self.seed = seed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Session(llc_bank_bytes={self.config.llc_bank_bytes}, seed={self.seed})"

    @classmethod
    def from_scenario(cls, scenario: Scenario | str) -> "Session":
        """A session on the scenario's machine (by value or library name/
        path); the scenario's seed becomes the session seed."""
        if isinstance(scenario, (str, Path)):
            scenario = load_scenario(scenario)
        return cls(scenario.to_config(), seed=scenario.seed)

    def _configured(self, faults: str, strict: bool) -> SystemConfig:
        cfg = self.config
        if faults or strict:
            cfg = replace(
                cfg,
                fault_spec=faults or cfg.fault_spec,
                strict_invariants=strict or cfg.strict_invariants,
            )
            cfg.validate()
        return cfg

    def run(
        self,
        workload: str,
        policy: str,
        *,
        seed: int | None = None,
        trace: bool | Observer = False,
        sample_every: int = DEFAULT_SAMPLE_EVERY,
        trace_capacity: int = DEFAULT_CAPACITY,
        faults: str = "",
        strict: bool = False,
        rrt_lookup_cycles: int | None = None,
        scheduler: Scheduler | None = None,
        census: bool = True,
        checkpoint=None,
        resume_from=None,
    ) -> RunResult:
        """Run one (workload, policy) simulation.

        ``trace=True`` attaches a fresh
        :class:`~repro.obs.observer.Observer` (ring-buffered events +
        interval timeline); passing an :class:`Observer` instance uses it
        as-is (custom sink, sampling period, or no timeline).

        ``checkpoint`` (a :class:`~repro.snapshot.Checkpointer`) enables
        task-boundary snapshots; ``resume_from`` continues a snapshotted
        run from its file, byte-identically.

        The run uses the session's config as-is (plus ``faults``/
        ``strict``).  A config compiled by :meth:`Scenario.to_config` — as
        the CLI, the service and :meth:`from_scenario` build theirs — is
        the scenario's machine exactly, so the ``config_sha256`` agrees
        across those doors; hand-tuned configs run unchanged.
        """
        observer: Observer | None = None
        if trace:
            observer = (
                trace
                if isinstance(trace, Observer)
                else Observer(sample_every=sample_every,
                              capacity=trace_capacity)
            )
        experiment = _run_one(
            workload,
            policy,
            self._configured(faults, strict),
            seed=self.seed if seed is None else seed,
            rrt_lookup_cycles=rrt_lookup_cycles,
            scheduler=scheduler,
            census=census,
            observer=observer,
            checkpoint=checkpoint,
            resume_from=resume_from,
        )
        return RunResult(experiment, observer)

    def sweep(
        self,
        workloads: list[str] | None = None,
        policies: list[str] | None = None,
        *,
        seed: int | None = None,
        plan=None,
        jobs: int = 1,
        timeout: float | None = None,
        retries: int = 0,
        run_dir=None,
        resume: bool = False,
        request: dict[str, Any] | None = None,
        on_event=None,
        faults: str = "",
        strict: bool = False,
        trace_dir=None,
        sample_every: int = DEFAULT_SAMPLE_EVERY,
        checkpoint_every: int = 0,
        deadline: float | None = None,
        preempt_after_tasks: int = 0,
    ):
        """Run every (workload, policy) pair through the crash-tolerant
        harness; returns its :class:`~repro.experiments.harness.SweepOutcome`.

        ``plan`` (a list of :class:`~repro.experiments.harness.Job`)
        overrides the ``workloads x policies`` grid — the CLI uses it to
        resume a checkpointed sweep.  With ``trace_dir`` every job runs
        traced and writes ``<dir>/<workload>-<policy>.trace.json``.

        ``checkpoint_every``/``deadline``/``preempt_after_tasks`` pass
        through to the harness's graceful-preemption machinery (see
        :func:`repro.experiments.harness.run_sweep`); SIGTERM/SIGINT make
        in-flight jobs snapshot at their next task boundary, and a
        ``resume=True`` sweep continues them byte-identically.
        """
        from repro.experiments import harness
        from repro.workloads.registry import workload_names

        cfg = self._configured(faults, strict)
        if plan is None:
            workloads = workloads if workloads is not None else workload_names()
            policies = (
                list(policies) if policies is not None else list(DEFAULT_POLICIES)
            )
            job_seed = self.seed if seed is None else seed
            plan = [
                harness.Job(wl, pol, job_seed)
                for wl in workloads
                for pol in policies
            ]
        runner = None
        if trace_dir is not None:
            Path(trace_dir).mkdir(parents=True, exist_ok=True)
            runner = functools.partial(
                _traced_sweep_runner,
                trace_dir=str(trace_dir),
                sample_every=sample_every,
            )
        return harness.run_sweep(
            plan,
            cfg,
            workers=jobs,
            timeout=timeout,
            retries=retries,
            run_dir=run_dir,
            resume=resume,
            request=request,
            on_event=on_event,
            runner=runner,
            checkpoint_every=checkpoint_every,
            deadline=deadline,
            preempt_after_tasks=preempt_after_tasks,
        )

    def suite(
        self,
        workloads: list[str] | None = None,
        policies: list[str] | None = None,
        *,
        seed: int | None = None,
        jobs: int = 1,
        timeout: float | None = None,
        retries: int = 0,
        run_dir=None,
    ) -> dict[tuple[str, str], ExperimentResult]:
        """Like :meth:`sweep` but all-or-nothing: raises
        :class:`~repro.experiments.harness.SweepFailure` if any job failed
        and returns results keyed ``(workload, policy)`` in grid order
        (what the figure builders consume)."""
        from repro.experiments.harness import SweepFailure
        from repro.workloads.registry import workload_names

        workloads = workloads if workloads is not None else workload_names()
        policies = (
            list(policies) if policies is not None else list(DEFAULT_POLICIES)
        )
        outcome = self.sweep(
            workloads,
            policies,
            seed=seed,
            jobs=jobs,
            timeout=timeout,
            retries=retries,
            run_dir=run_dir,
        )
        if outcome.failures:
            raise SweepFailure(outcome.failures)
        results = outcome.results()
        return {
            (wl, pol): results[(wl, pol)]
            for wl in workloads
            for pol in policies
        }


def run_scenario(
    scenario: Scenario | str,
    *,
    jobs: int = 1,
    run_dir=None,
    resume: bool = False,
):
    """Execute a scenario (by value, library name, or file path).

    Dispatch follows :attr:`Scenario.kind`:

    * ``run`` — one simulation; returns a :class:`RunResult` (traced when
      the scenario says so, Chrome trace written to ``trace.out`` if set).
    * ``multiprog`` — co-scheduled processes through
      :func:`repro.scenario.run_multiprog`; returns a :class:`RunResult`.
    * ``sweep`` — the grid through the crash-tolerant harness (``jobs``
      workers, resumable in ``run_dir``); returns its
      :class:`~repro.experiments.harness.SweepOutcome`.
    """
    from repro.scenario import run_multiprog

    if isinstance(scenario, (str, Path)):
        scenario = load_scenario(scenario)
    session = Session(scenario.to_config(), seed=scenario.seed)
    if scenario.kind == "sweep":
        return session.sweep(
            list(scenario.workloads),
            list(scenario.policies),
            jobs=jobs,
            run_dir=run_dir,
            resume=resume,
            checkpoint_every=scenario.checkpoint.every,
            deadline=scenario.checkpoint.deadline,
        )
    observer: Observer | None = None
    if scenario.trace.enabled:
        observer = Observer(sample_every=scenario.trace.sample_every)
    if scenario.kind == "multiprog":
        experiment = run_multiprog(
            scenario, session.config, observer=observer
        )
        result = RunResult(experiment, observer)
    else:
        result = session.run(
            scenario.workload,
            scenario.policy,
            trace=observer if observer is not None else False,
        )
    if scenario.trace.out and result.traced:
        result.write_chrome_trace(scenario.trace.out)
    return result


def _run_one(
    workload: str,
    policy: str,
    cfg: SystemConfig | None = None,
    *,
    seed: int = 0,
    rrt_lookup_cycles: int | None = None,
    scheduler: Scheduler | None = None,
    census: bool = True,
    observer: Observer | None = None,
    checkpoint=None,
    resume_from=None,
) -> ExperimentResult:
    """Build the machine, run the benchmark, snapshot the statistics.

    The functional core behind :meth:`Session.run` and the sweep
    harness's runners.  ``observer`` (when given) is attached to the
    machine and stamped with dispatch times by the executor.

    ``checkpoint`` (a :class:`~repro.snapshot.Checkpointer`) enables
    periodic / signal-triggered snapshots; a triggered preemption
    propagates as :class:`~repro.snapshot.PreemptedError` after the
    snapshot is on disk.  ``resume_from`` (a snapshot file path) restores
    a preempted run and continues it — the final statistics are
    byte-identical to the uninterrupted run.
    """
    from repro.runtime.extensions import TdNucaRuntime

    if policy not in POLICIES:
        raise ValueError(
            f"unknown policy {policy!r}; valid policies: {', '.join(POLICIES)}"
        )
    cfg = cfg if cfg is not None else default_config()
    cfg.validate()  # fail early, with a clear message, on nonsense configs

    resume_payload = None
    if resume_from is not None:
        from repro.snapshot import load_snapshot, verify_meta

        resume_payload = load_snapshot(resume_from)
        verify_meta(
            resume_payload, workload=workload, policy=policy, seed=seed, cfg=cfg
        )

    wl = get_workload(workload)
    program = wl.build(cfg, seed)
    machine = build_machine(
        cfg, policy, rrt_lookup_cycles=rrt_lookup_cycles, seed=seed, census=census
    )
    if observer is not None:
        observer.attach(machine)
    extension = build_runtime(machine, policy)
    executor = Executor(
        machine,
        scheduler=scheduler,
        extension=extension,
        overlap_mode=wl.tdg_overlap,
        observer=observer,
    )
    if checkpoint is not None:
        from repro.snapshot import config_sha256

        checkpoint.meta = {
            "workload": wl.name,
            "policy": policy,
            "seed": seed,
            "config_sha256": config_sha256(cfg),
        }
        executor.checkpointer = checkpoint

    segment = resume_payload["meta"]["segment"] if resume_payload else None
    if program.warmup_phases:
        # Initialization phases: run, then reset counters — the paper
        # measures the post-initialisation parallel execution only.  The
        # observer's trace and timeline restart with the counters
        # (machine.reset_stats drives Observer.on_stats_reset).
        from repro.runtime.task import Program as _Program

        warmup = _Program(program.name, program.phases[: program.warmup_phases])
        main = _Program(program.name, program.phases[program.warmup_phases :])
        if segment == "main":
            # The snapshot postdates the warmup (and its stats reset):
            # restoring it stands in for running the warmup at all.
            if checkpoint is not None:
                checkpoint.segment = "main"
            exec_stats = executor.resume(main, resume_payload)
        else:
            if checkpoint is not None:
                checkpoint.segment = "warmup"
            if segment == "warmup":
                executor.resume(warmup, resume_payload)
            else:
                executor.run(warmup)
            machine.reset_stats()
            if isinstance(extension, TdNucaRuntime):
                extension.reset_stats()
            if checkpoint is not None:
                checkpoint.segment = "main"
            exec_stats = executor.run(main)
    else:
        if segment == "warmup":
            raise ValueError(
                "snapshot was taken during warmup but this workload has no "
                "warmup phases"
            )
        if checkpoint is not None:
            checkpoint.segment = "main"
        if resume_payload is not None:
            exec_stats = executor.resume(program, resume_payload)
        else:
            exec_stats = executor.run(program)

    result = ExperimentResult(
        workload=wl.name,
        policy=policy,
        machine=machine.collect_stats(),
        execution=exec_stats,
    )
    if resume_payload is not None:
        result.extra["resumed_from_task"] = resume_payload["meta"]["tasks_completed"]
    if machine.census is not None:
        result.rnuca_census = machine.census.rnuca_census()
        result.unique_blocks = machine.census.unique_blocks
    if isinstance(extension, TdNucaRuntime):
        result.runtime = extension.stats
        result.isa = machine.isa.stats if machine.isa is not None else None
        result.dependency_categories = extension.dependency_categories()
        # Unique-block counts per Fig.-3 category (priority: a block touched
        # by several dependencies takes the "most reused" category so that
        # NotReused truly means every covering dependency was always
        # bypassed).
        amap = machine.amap
        raw: dict[str, set[int]] = {}
        for cat, regions in result.dependency_categories.items():
            blocks: set[int] = set()
            for region in regions:
                blocks.update(region.blocks(amap))
            raw[cat] = blocks
        both = raw["both"] | (raw["in"] & raw["out"])
        in_only = raw["in"] - both
        out_only = raw["out"] - both
        reused = both | raw["in"] | raw["out"]
        not_reused = raw["not_reused"] - reused
        result.extra["dep_category_blocks"] = {
            "both": len(both),
            "in": len(in_only),
            "out": len(out_only),
            "not_reused": len(not_reused),
        }
        result.extra["dep_blocks_total"] = len(reused | not_reused)
    return result


def _traced_sweep_runner(
    job, cfg, *, trace_dir: str, sample_every: int,
    checkpoint=None, resume_from=None,
):
    """Harness runner for traced sweeps (module-level: spawn-picklable).

    Writes the job's Chrome trace inside the worker and returns the
    flattened dict (with trace/timeline sections) so nothing heavyweight
    crosses the process boundary.  Takes the ``checkpoint``/``resume_from``
    kwargs every harness runner accepts, so traced sweeps are preemptible
    too.
    """
    observer = Observer(sample_every=sample_every)
    experiment = _run_one(
        job.workload, job.policy, cfg, seed=job.seed, observer=observer,
        checkpoint=checkpoint, resume_from=resume_from,
    )
    result = RunResult(experiment, observer)
    path = Path(trace_dir) / f"{job.workload}-{job.policy}.trace.json"
    result.write_chrome_trace(path)
    return result.to_dict()
