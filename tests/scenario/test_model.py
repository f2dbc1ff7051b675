"""Scenario schema: parsing, validation, and compilation to SystemConfig."""

import dataclasses

import pytest

from repro.config import scaled_config
from repro.scenario import (
    MachineSpec,
    Scenario,
    ScenarioError,
    parse_scenario,
)
from repro.sim.machine import POLICIES
from repro.snapshot.format import config_sha256
from repro.workloads.registry import workload_names

MINIMAL = {"scenario": 1, "name": "t", "workload": "kmeans", "policy": "tdnuca"}


class TestParse:
    def test_minimal_run(self):
        sc = parse_scenario(dict(MINIMAL))
        assert sc.kind == "run"
        assert sc.workload == "kmeans"
        assert sc.policy == "tdnuca"

    def test_version_stamp_optional_but_checked(self):
        parse_scenario({k: v for k, v in MINIMAL.items() if k != "scenario"})
        with pytest.raises(ScenarioError, match="schema version"):
            parse_scenario({**MINIMAL, "scenario": 99})

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ScenarioError, match="wrokload"):
            parse_scenario({**MINIMAL, "wrokload": "kmeans"})

    def test_unknown_workload_lists_registry(self):
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario({**MINIMAL, "workload": "nbody"})
        for name in workload_names():
            assert name in str(excinfo.value)
        assert excinfo.value.field == "workload"

    def test_unknown_policy_lists_registry(self):
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario({**MINIMAL, "policy": "hnuca"})
        for name in POLICIES:
            assert name in str(excinfo.value)

    def test_mutually_exclusive_shapes(self):
        raw = {
            **MINIMAL,
            "sweep": {"workloads": ["kmeans"], "policies": ["tdnuca"]},
        }
        with pytest.raises(ScenarioError):
            parse_scenario(raw)

    def test_source_attached_to_nested_errors(self):
        raw = {**MINIMAL, "machine": {"mesh": "banana"}}
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(raw, source="exp.yaml")
        assert excinfo.value.source == "exp.yaml"
        assert "exp.yaml" in str(excinfo.value)
        assert "machine.mesh" in str(excinfo.value)

    @pytest.mark.parametrize(
        "mesh", ["8x8", [8, 8], {"width": 8, "height": 8}]
    )
    def test_geometry_forms(self, mesh):
        raw = {**MINIMAL, "machine": {"mesh": mesh, "cluster": "4x4"}}
        sc = parse_scenario(raw)
        assert (sc.machine.mesh_width, sc.machine.mesh_height) == (8, 8)
        assert sc.to_config().num_cores == 64


class TestCompile:
    def test_default_machine_matches_scaled_config(self):
        sc = parse_scenario(dict(MINIMAL))
        assert config_sha256(sc.to_config()) == config_sha256(
            scaled_config(1 / 64)
        )

    def test_faults_strict_match_legacy_replace(self):
        raw = {**MINIMAL, "faults": "bank:5@task=100", "strict": True}
        sc = parse_scenario(raw)
        legacy = dataclasses.replace(
            scaled_config(1 / 64),
            fault_spec="bank:5@task=100",
            strict_invariants=True,
        )
        assert config_sha256(sc.to_config()) == config_sha256(legacy)

    def test_kernel_never_changes_fingerprint(self):
        shas = {
            config_sha256(
                parse_scenario({**MINIMAL, "kernel": k}).to_config()
            )
            for k in ("auto", "reference", "vector")
        }
        assert len(shas) == 1

    def test_mesh_scale_out_picks_latency_band(self):
        raw = {**MINIMAL, "machine": {"mesh": "8x8", "cluster": "4x4"}}
        cfg = parse_scenario(raw).to_config()
        assert cfg.num_cores == 64
        assert cfg.latency.llc_hit == 18  # the 64-core latency table

    def test_invalid_geometry_compiles_to_scenario_error(self):
        raw = {**MINIMAL, "machine": {"mesh": "6x6", "cluster": "1x1"}}
        with pytest.raises(ScenarioError, match="power of two"):
            parse_scenario(raw)


class TestRoundTrip:
    def test_to_dict_stamps_version(self):
        assert parse_scenario(dict(MINIMAL)).to_dict()["scenario"] == 1

    def test_parse_of_to_dict_is_identity(self):
        raw = {
            **MINIMAL,
            "machine": {"scale": 256, "mesh": "8x8", "cluster": "4x4"},
            "faults": "bank:1@task=50",
            "seed": 7,
        }
        sc = parse_scenario(raw)
        rt = parse_scenario(sc.to_dict())
        assert config_sha256(rt.to_config()) == config_sha256(sc.to_config())
        assert rt.seed == sc.seed and rt.faults == sc.faults

    def test_from_config_round_trips(self):
        sc = parse_scenario(
            {**MINIMAL, "machine": {"scale": 128, "mesh": "8x8",
                                    "cluster": "4x4"}}
        )
        cfg = sc.to_config()
        back = Scenario.from_config(
            cfg, name="back", workload="kmeans", policy="tdnuca"
        )
        assert back is not None
        assert config_sha256(back.to_config()) == config_sha256(cfg)

    def test_from_config_refuses_inexpressible(self):
        cfg = dataclasses.replace(scaled_config(1 / 64), l1_assoc=4)
        assert Scenario.from_config(cfg, name="x") is None


class TestProgrammatic:
    def test_machine_only_scenario_compiles(self):
        # The CLI's flag path: no workload, just geometry.
        cfg = Scenario(name="cli", machine=MachineSpec(scale=1024)).to_config()
        assert cfg.num_cores == 16

    def test_validate_requires_a_shape(self):
        with pytest.raises(ScenarioError):
            Scenario(name="empty").validate()

    def test_with_source_is_idempotent(self):
        err = ScenarioError("boom", field="f", source="a.yaml")
        assert err.with_source("b.yaml") is err
        bare = ScenarioError("boom", field="f")
        assert bare.with_source("b.yaml").source == "b.yaml"
