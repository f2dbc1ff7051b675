"""Pinned run fingerprints: ``config_sha256`` and ``request_key`` literals.

Every result cache entry, spool snapshot and sweep resume check is keyed
on these two hashes, so a change that moves either silently orphans
every stored result.  The values below are literal, full-length digests;
each scenario must produce them through every door that compiles it: the
scenario itself, the service's body parser and a sweep scenario's cells.
A refused case's body must fail through every door instead.
"""

import pytest

from repro.scenario.model import ScenarioError, parse_scenario
from repro.service.cache import request_key
from repro.service.queue import cell_keys, scenario_from_body, service_form
from repro.snapshot.format import config_sha256

#: scenario fields of each pinned case (beyond name/workload/policy).
CASES = {
    "scale-64": {"machine": {"scale": 64}},
    "scale-1024": {"machine": {"scale": 1024}},
    "scale-2048": {"machine": {"scale": 2048}},
    "mesh-8x8-cluster-4x4": {
        "machine": {"scale": 1024, "mesh": "8x8", "cluster": "4x4"},
    },
    "mesh-8x8-cluster-4x4-rrt16": {
        "machine": {"scale": 1024, "mesh": "8x8", "cluster": "4x4",
                    "rrt_entries": 16},
    },
    "faults-strict-128": {
        "machine": {"scale": 128},
        "faults": "bank:5@task=10,link:1-2@task=20",
        "strict": True,
    },
}

#: cases whose body 5.0 refuses: the kernel left the scenario and is
#: chosen by ``REPRO_KERNEL`` (its digests were those of ``scale-1024``).
REFUSED = {
    "kernel-vector-1024": {"machine": {"scale": 1024}, "kernel": "vector"},
}

CONFIG_SHA256 = {
    "scale-64":
        "42b907beed1613ffc9b2c375e6db2a1a5593e4491369d8ff737380c206c28248",
    "scale-1024":
        "b707007e71f78fda8e5b79e96d1e86589e339a3bf87f4f539961e42e342742f0",
    "scale-2048":
        "61da175a42a61c2f622e13befe2018beed4e35c8483014202205ba15b73f87b2",
    "mesh-8x8-cluster-4x4":
        "8eaa5ea2dc95b16fed513f5ac94e235ccf1c2124b4f1373cc7e8b025b9e8ff4b",
    "mesh-8x8-cluster-4x4-rrt16":
        "d3366a3ba8945874b994bd6023edb108ca0bbe59b8762d442ae824942d1eff8c",
    "faults-strict-128":
        "51bd729132f7e948517f3f3417b96081ed57b02e4ad61f62484e46cd49ba8554",
}

#: (workload, policy, seed) cells whose request keys are pinned.
CELLS = (("kmeans", "snuca", 3), ("gauss", "tdnuca", 0))

REQUEST_KEYS = {
    "scale-64": (
        "8f4085763cf3207681909b8aecd8534952e9842049154f04ed419b6d69d7cc27",
        "8359c15c18e2bfc90584a8a83f65b8caf7e0c940b95fe376014fb8aaa023733b",
    ),
    "scale-1024": (
        "a47d9e4778233fdc8369e692d05f395f9ac2b5ffa1da61eec870b956856d71c1",
        "e2d2e456c2ca44d6237c23cbbebf5952b0c31185633084a5a9bc15e93383f247",
    ),
    "scale-2048": (
        "fac535efdf797ae38048e5cc7b15f145d6ded0e8014064f7f87bcdee2894ec5a",
        "5f1e90cd927f874765f099d6f36a3ee6d20300c908d80579f9c8872fad88f0f3",
    ),
    "mesh-8x8-cluster-4x4": (
        "1c47c51d145c268872ffea94723ed417c748244d4e0ea5f2d7a73e7748dcc72b",
        "dc45bf25fd3d3a6fe425d849883e358dd55f12830e7c868ee8145fd9b3ae0efe",
    ),
    "mesh-8x8-cluster-4x4-rrt16": (
        "c009651c272207f9f142b8b5ddfb346649541edff5fc203ed173c20901a68a41",
        "484de957eec720cf01f0d21f9bdcef7727cfacee510b71d1b42ad9b8089f152b",
    ),
    "faults-strict-128": (
        "2460ed3447eb4a095b6deda21b3c8842122c54cdff17a368c6485e2715e80c73",
        "ca234e8eacd8daef1935b1d406d2d4b760e8c3beb88d23009a230ddfff6b3bb3",
    ),
}

ALL_CASES = sorted(CASES) + sorted(REFUSED)


def _run_body(case: str, workload: str, policy: str, seed: int) -> dict:
    return {"name": f"pin-{case}", "workload": workload, "policy": policy,
            "seed": seed, **CASES.get(case, REFUSED.get(case))}


def _sweep_body(case: str, seed: int) -> dict:
    return {"name": f"pin-{case}-sweep", "seed": seed,
            "sweep": {"workloads": ["kmeans", "gauss"],
                      "policies": ["snuca", "tdnuca"]},
            **CASES.get(case, REFUSED.get(case))}


def _service_keys(body: dict, kind: str) -> dict[str, str]:
    """Cell -> request key of ``{"scenario": body}`` as the service
    admits it at the ``kind`` endpoint."""
    return cell_keys(service_form(scenario_from_body(body, kind)))


def _refused(case: str, compile_body) -> bool:
    """For a refused case, check that ``compile_body()`` fails on the
    ``kernel`` field and return True; False for a pinned case."""
    if case not in REFUSED:
        return False
    with pytest.raises(ScenarioError, match="REPRO_KERNEL") as exc:
        compile_body()
    assert exc.value.field == "kernel"
    return True


@pytest.mark.parametrize("case", ALL_CASES)
def test_config_sha256_is_pinned(case):
    body = _run_body(case, "kmeans", "snuca", 0)
    if _refused(case, lambda: parse_scenario(body)):
        return
    scenario = parse_scenario(body)
    assert config_sha256(scenario.to_config()) == CONFIG_SHA256[case]


@pytest.mark.parametrize("case", ALL_CASES)
def test_request_keys_are_pinned(case):
    if _refused(case, lambda: parse_scenario(_run_body(case, *CELLS[0]))):
        return
    for (wl, pol, seed), expected in zip(CELLS, REQUEST_KEYS[case]):
        cfg = parse_scenario(_run_body(case, wl, pol, seed)).to_config()
        assert request_key(cfg, wl, pol, seed) == expected


@pytest.mark.parametrize("case", ALL_CASES)
def test_service_body_parser_yields_the_pinned_keys(case):
    if _refused(case, lambda: _service_keys(_run_body(case, *CELLS[0]), "run")):
        return
    for (wl, pol, seed), expected in zip(CELLS, REQUEST_KEYS[case]):
        keys = _service_keys(_run_body(case, wl, pol, seed), "run")
        assert keys == {f"{wl}/{pol}": expected}


@pytest.mark.parametrize("case", ALL_CASES)
def test_sweep_cells_yield_the_pinned_keys(case):
    if _refused(case, lambda: _service_keys(_sweep_body(case, 0), "sweep")):
        return
    for (wl, pol, seed), expected in zip(CELLS, REQUEST_KEYS[case]):
        keys = _service_keys(_sweep_body(case, seed), "sweep")
        assert len(keys) == 4
        assert keys[f"{wl}/{pol}"] == expected


def test_service_job_key_is_pinned():
    # The poison registry, fleet claims and queue shards key a job on its
    # service form's to_dict(); a run that never named a kernel keeps the
    # key it had in 4.0 (which gave each --kernel value a key of its own).
    from repro.service.fleet import job_key

    body = _run_body("scale-1024", "kmeans", "snuca", 3)
    scenario = service_form(scenario_from_body(body, "run"))
    assert job_key(scenario.to_dict()) == "b9ba5f160746adb8"
