"""TD-NUCA reproduction: runtime-driven management of NUCA caches in task
dataflow programming models (Caheny et al., SC 2022).

The front door is :class:`Session` — a configured simulation context that
runs experiments, sweeps, and the full figure suite, with observability
(event tracing, bank/link heatmap timelines, Chrome-trace export) one
keyword away::

    from repro import Session

    session = Session(scale=1 / 64)              # calibrated paper scale
    result = session.run("kmeans", "tdnuca", trace=True)
    print(result.makespan, result.machine.llc_hit_ratio)
    print(result.bank_heatmap())                 # ASCII bank-load timeline
    result.write_chrome_trace("trace.json")      # open in ui.perfetto.dev

:class:`RunResult` delegates every statistic of the classic
:class:`~repro.experiments.runner.ExperimentResult` and adds the trace
accessors, so reporting code accepts either.

Experiments are described declaratively by :class:`Scenario` — one
versioned YAML/JSON document capturing machine geometry, workload mix,
policy, faults, co-runners, kernel and seeds — and the curated library
under ``scenarios/`` is loadable by name::

    from repro import load_scenario, run_scenario

    result = run_scenario("stress-8x8")          # 64 cores, 8x8 mesh
    scenario = load_scenario("multiprog-duo")    # inspect before running
    print(scenario.to_config().num_cores)

CLI flags, service submissions and scenario files all compile through
:meth:`Scenario.to_config`, so the same logical run is
fingerprint-identical whichever way it is expressed; a :class:`Session`
runs exactly the config it holds.

Other entry points:

* :meth:`Session.sweep` / :meth:`Session.suite` — the crash-tolerant
  evaluation sweep (parallel workers, checkpoint/resume, per-job traces).
* :mod:`repro.experiments.figures` — every table/figure of the paper.
* :mod:`repro.obs` — the observability layer itself (``Observer``,
  ``EventTrace``, exporters) for custom sinks and sampling periods.
* :func:`repro.sim.machine.build_machine` +
  :class:`repro.runtime.Executor` — build your own experiments.
* ``python -m repro`` — the command-line interface (``run``, ``sweep``,
  ``figures``, ``trace``, ...).
"""

from repro.api import RunResult, Session, run_scenario
from repro.config import SystemConfig, paper_config, scaled_config
from repro.deps import DepMode
from repro.scenario import Scenario, ScenarioError, load_scenario, scenario_names

__version__ = "3.0.0"

__all__ = [
    "Session",
    "RunResult",
    "SystemConfig",
    "paper_config",
    "scaled_config",
    "DepMode",
    "Scenario",
    "ScenarioError",
    "load_scenario",
    "run_scenario",
    "scenario_names",
    "__version__",
]
