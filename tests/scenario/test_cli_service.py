"""Scenario routing through the CLI and the service boundary."""

import warnings

import pytest

from repro.cli import build_parser, main
from repro.service.queue import Job, scenario_from_body, service_form


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
        scenario = scenario_from_body(body["scenario"], "run")
        assert scenario.workload == "md5" and scenario.policy == "tdnuca"
        machine = scenario.machine
        assert machine.scale == 1024
        assert (machine.mesh_width, machine.mesh_height) == (8, 8)
        assert (machine.cluster_width, machine.cluster_height) == (4, 4)


class TestServiceBoundary:
    def test_scenario_body_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scenario_from_body("stress-8x8", "run")

    def test_kind_endpoint_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sweep"):
            scenario_from_body("stress-8x8", "sweep")

    def test_multiprog_scenario_rejected_with_guidance(self):
        with pytest.raises(ValueError, match="repro run"):
            scenario_from_body("multiprog-duo", "run")

    def test_wire_geometry_round_trips(self):
        # A job's one serialized form (worker payloads, claims, shards,
        # job records) parses back to the same job and machine.
        scenario = scenario_from_body(
            {"name": "t", "workload": "kmeans", "policy": "tdnuca",
             "machine": {"scale": 1024, "mesh": "8x8", "rrt_entries": 16}},
            "run",
        )
        job = Job(id="j", scenario=service_form(scenario))
        again = Job(id="j", scenario=service_form(
            scenario_from_body(job.scenario.to_dict(), "run")
        ))
        assert again.scenario == job.scenario
        assert again.key == job.key
        assert again.scenario.to_config().num_cores == 64
        assert again.scenario.to_config().rrt_entries == 16
