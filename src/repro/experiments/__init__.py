"""Experiment harness: run (workload x policy) sweeps and assemble every
table and figure of the paper's evaluation section.

Runs themselves go through :class:`repro.api.Session`; this package holds
the result record, the crash-tolerant sweep harness and the figure
builders."""

from repro.experiments.runner import ExperimentResult
from repro.experiments import figures, harness, paper

__all__ = [
    "ExperimentResult",
    "figures",
    "harness",
    "paper",
]
