"""Declarative scenario layer: one canonical run description.

A :class:`Scenario` captures everything that defines a simulation —
machine geometry, workload mix, NUCA policy, fault schedule,
multiprogrammed co-runners, kernel choice, trace/checkpoint options and
seeds — as one versioned, schema-validated value.  ``Session.run/sweep``,
the CLI (``repro run scenario.yaml``, ``repro scenario ...``) and the
service specs all compile down to it, so the same logical run expressed
any of those ways produces an identical ``config_sha256`` and
byte-identical statistics.

Scenarios serialize to YAML or JSON; a curated library ships under
``scenarios/`` at the repository root and is loadable by name via
:func:`load_scenario` / :func:`scenario_names`.
"""

from repro.scenario.model import (
    SCHEMA_VERSION,
    CheckpointSpec,
    CoRunner,
    MachineSpec,
    Scenario,
    ScenarioError,
    TraceSpec,
    parse_scenario,
)
from repro.scenario.loader import (
    library_dir,
    load_scenario,
    scenario_names,
)
from repro.scenario.runner import rebase_program, run_multiprog

__all__ = [
    "SCHEMA_VERSION",
    "Scenario",
    "ScenarioError",
    "MachineSpec",
    "CoRunner",
    "TraceSpec",
    "CheckpointSpec",
    "parse_scenario",
    "load_scenario",
    "scenario_names",
    "library_dir",
    "rebase_program",
    "run_multiprog",
]
