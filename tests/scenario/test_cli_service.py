"""Scenario routing through the CLI and the service boundary."""

import warnings

import pytest

from repro.cli import build_parser, main
from repro.service.queue import spec_from_dict


class TestScenarioSubcommands:
    def test_list_shows_the_library(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "stress-8x8" in out
        assert "multiprog" in out

    def test_show_prints_fingerprint_and_machine(self, capsys):
        assert main(["scenario", "show", "stress-8x8"]) == 0
        out = capsys.readouterr().out
        assert "config_sha256" in out
        assert "8x8 mesh" in out

    def test_show_unknown_name_exits_2(self, capsys):
        assert main(["scenario", "show", "no-such"]) == 2
        assert "no-such" in capsys.readouterr().err

    def test_validate_good_and_bad(self, tmp_path, capsys):
        good = tmp_path / "good.yaml"
        good.write_text(
            "scenario: 1\nname: g\nworkload: kmeans\npolicy: tdnuca\n"
        )
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "scenario: 1\nname: b\nworkload: kmeans\npolicy: warp\n"
        )
        assert main(["scenario", "validate", str(good)]) == 0
        assert main(["scenario", "validate", str(good), str(bad)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "bad.yaml" in out and "warp" in out


class TestRunDispatch:
    def test_unknown_positional_fails_at_parse_time(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "definitely-not-a-thing"])

    def test_scenario_name_parses_without_policy(self):
        args = build_parser().parse_args(["run", "stress-8x8"])
        assert args.workload == "stress-8x8"
        assert args.policy is None

    def test_scenario_plus_policy_is_an_error(self, capsys):
        assert main(["run", "stress-8x8", "tdnuca"]) == 2
        assert "policy" in capsys.readouterr().err

    def test_workload_without_policy_is_an_error(self, capsys):
        assert main(["run", "kmeans"]) == 2
        err = capsys.readouterr().err
        assert "needs a policy" in err and "tdnuca" in err

    def test_machine_flags_cannot_override_a_scenario(self, capsys):
        assert main(["run", "stress-8x8", "--scale", "2048"]) == 2
        err = capsys.readouterr().err
        assert "--scale" in err and "scenario show stress-8x8" in err

    def test_every_conflicting_run_flag_is_named(self, capsys):
        rc = main(
            ["run", "stress-8x8", "--seed", "7", "--strict",
             "--faults", "bank:5@task=10", "--mesh", "8x8"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        for flag in ("--seed", "--strict", "--faults", "--mesh"):
            assert flag in err


class TestSubmitDispatch:
    def test_multiprog_scenario_rejected_locally(self, capsys):
        assert main(["submit", "multiprog-duo"]) == 2
        err = capsys.readouterr().err
        assert "multiprog" in err

    def test_scenario_plus_policy_is_an_error(self, capsys):
        assert main(["submit", "stress-8x8", "tdnuca"]) == 2
        assert "policy" in capsys.readouterr().err

    def test_machine_flags_cannot_override_a_scenario(self, capsys):
        assert main(["submit", "stress-8x8", "--scale", "2048"]) == 2
        err = capsys.readouterr().err
        assert "--scale" in err and "scenario show stress-8x8" in err

    def test_flags_post_a_scenario_body_with_the_geometry(
        self, capsys, monkeypatch
    ):
        from repro.service.client import ServiceClient

        posted = []

        def record(self, method, path, body=None):
            posted.append((method, path, body))
            return {"ok": True, "data": {"job": {"id": "j1"}}}

        monkeypatch.setattr(ServiceClient, "request", record)
        rc = main(["submit", "md5", "tdnuca", "--mesh", "8x8",
                   "--cluster", "4x4", "--scale", "1024", "--no-wait"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "j1"
        [(method, path, body)] = posted
        assert (method, path) == ("POST", "/v1/run")
        assert set(body) == {"scenario"}
        spec = spec_from_dict({**body, "kind": "run"})
        assert spec.workload == "md5" and spec.policy == "tdnuca"
        assert spec.scale == 1024
        assert spec.mesh == (8, 8) and spec.cluster == (4, 4)


class TestServiceBoundary:
    def test_scenario_body_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec_from_dict({"kind": "run", "scenario": "stress-8x8"})

    def test_kind_endpoint_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sweep"):
            spec_from_dict({"kind": "sweep", "scenario": "stress-8x8"})

    def test_multiprog_scenario_rejected_with_guidance(self):
        with pytest.raises(ValueError, match="repro run"):
            spec_from_dict({"kind": "run", "scenario": "multiprog-duo"})

    def test_wire_geometry_round_trips(self):
        spec = spec_from_dict(
            {"kind": "run", "workload": "kmeans", "policy": "tdnuca",
             "scale": 1024, "mesh": [8, 8], "rrt_entries": 16}
        )
        again = spec_from_dict(spec.to_dict())
        assert again == spec
        assert again.config().num_cores == 64
        assert again.config().rrt_entries == 16

    def test_default_spec_wire_format_is_unchanged(self):
        # Pre-scenario bodies must serialize byte-identically (poison
        # keys, spool files and old clients depend on it): no geometry
        # keys unless geometry was requested.
        spec = spec_from_dict(
            {"kind": "run", "workload": "kmeans", "policy": "tdnuca"}
        )
        assert set(spec.to_dict()) == {
            "kind", "workload", "policy", "seed", "scale", "faults",
            "strict", "kernel",
        }
