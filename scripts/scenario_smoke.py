#!/usr/bin/env python
"""Scenario-library smoke test for CI.

Three gates, all cheap enough for every push:

1. **Library integrity** — every file under ``scenarios/`` parses,
   validates, compiles to a machine config, and round-trips
   (``parse(to_dict())`` compiles to the identical config, same
   ``config_sha256``).  A curated scenario that drifts out of schema is a
   broken front door, caught here rather than by the first user.
2. **Typed rejection** — the committed malformed fixture
   (``tests/scenario/fixtures/malformed.yaml``) must be rejected with a
   :class:`~repro.scenario.ScenarioError` that names both the offending
   file and the offending field.  Error quality is part of the DSL's
   contract.
3. **Mesh-scale determinism** — one 8x8 scenario (``stress-8x8``) runs
   under both simulation kernels and must produce byte-identical
   ``MachineStats``; the scaled-out geometry gets the same
   kernel-equivalence guarantee the 4x4 golden suite enforces.

Usage: ``PYTHONPATH=src python scripts/scenario_smoke.py``
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.api import run_scenario  # noqa: E402
from repro.sim.kernels import KERNEL_ENV  # noqa: E402
from repro.scenario import (  # noqa: E402
    ScenarioError,
    load_scenario,
    parse_scenario,
    scenario_names,
)
from repro.snapshot.format import config_sha256  # noqa: E402

MALFORMED = ROOT / "tests" / "scenario" / "fixtures" / "malformed.yaml"
BOTH_KERNELS_SCENARIO = "stress-8x8"


def check_library() -> int:
    names = scenario_names()
    if len(names) < 10:
        print(f"FAIL: curated library has {len(names)} scenarios, want >= 10")
        return 1
    failures = 0
    for name in names:
        try:
            scenario = load_scenario(name)
            sha = config_sha256(scenario.to_config())
            rt = parse_scenario(scenario.to_dict(), source=name)
            rt_sha = config_sha256(rt.to_config())
        except ScenarioError as exc:
            print(f"FAIL {name}: {exc}")
            failures += 1
            continue
        if rt_sha != sha:
            print(f"FAIL {name}: round-trip changed the config fingerprint "
                  f"({sha} -> {rt_sha})")
            failures += 1
            continue
        print(f"ok   {name} ({scenario.kind}, {sha[:12]})")
    return failures


def check_malformed() -> int:
    try:
        load_scenario(str(MALFORMED))
    except ScenarioError as exc:
        message = str(exc)
        missing = [
            part for part in (MALFORMED.name, exc.field or "")
            if not part or part not in message
        ]
        if exc.field is None or missing:
            print(f"FAIL: malformed fixture rejected, but the error does not "
                  f"name file and field: {message!r}")
            return 1
        print(f"ok   malformed fixture rejected: {message}")
        return 0
    print(f"FAIL: {MALFORMED} was accepted; it must raise ScenarioError")
    return 1


def check_both_kernels() -> int:
    scenario = load_scenario(BOTH_KERNELS_SCENARIO)
    stats = {}
    for kernel in ("reference", "vector"):
        with mock.patch.dict(os.environ, {KERNEL_ENV: kernel}):
            result = run_scenario(scenario)
        stats[kernel] = json.dumps(
            result.stats_dict(), sort_keys=True, separators=(",", ":")
        )
    if stats["reference"] != stats["vector"]:
        print(f"FAIL: {BOTH_KERNELS_SCENARIO} diverges across kernels")
        return 1
    print(f"ok   {BOTH_KERNELS_SCENARIO} byte-identical under both kernels")
    return 0


def main() -> int:
    failures = check_library()
    failures += check_malformed()
    failures += check_both_kernels()
    if failures:
        print(f"\nscenario smoke: {failures} failure(s)")
        return 1
    print("\nscenario smoke: all gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
