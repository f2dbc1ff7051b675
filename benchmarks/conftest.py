"""Shared infrastructure for the figure-reproduction benchmarks.

The full (8 workloads x 5 policies) sweep is expensive, so it runs once
per session (the ``suite`` fixture) and every ``bench_figNN`` target
derives its table/figure from the cached results, printing the measured
series next to the paper's reference numbers and asserting the paper's
qualitative shape.

Environment knobs:

* ``REPRO_BENCH_SCALE``  — capacity scale (default 1/64, the calibrated
  experiment scale; use e.g. 1/256 for a quick smoke run).
"""

from __future__ import annotations

import os

import pytest

from repro.api import Session
from repro.config import scaled_config

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", 1.0 / 64.0))

ALL_POLICIES = ["snuca", "rnuca", "tdnuca", "tdnuca-bypass-only", "tdnuca-noisa"]


@pytest.fixture(scope="session")
def suite():
    """Results of the full sweep, shared by every figure target."""
    return Session(scaled_config(BENCH_SCALE)).suite(policies=ALL_POLICIES)


@pytest.fixture(scope="session")
def bench_cfg():
    return scaled_config(BENCH_SCALE)


def emit(figure_text: str) -> None:
    """Print a figure table (visible with ``pytest -s`` and in the teed
    bench output)."""
    print("\n" + figure_text + "\n")
