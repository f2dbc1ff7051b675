"""The PR's acceptance invariant: one logical run, four front doors.

The same experiment expressed as (a) a curated YAML scenario, (b) CLI
flags, (c) Session kwargs and (d) a service submission body (by name or by
value) must compile to the identical ``config_sha256`` — and actually
running it must produce byte-identical ``MachineStats`` regardless of the
door it came through.
"""

import json

from repro.api import Session, run_scenario
from repro.cli import _flag_scenario, build_parser
from repro.scenario import Scenario, load_scenario
from repro.service.cache import request_key
from repro.service.queue import scenario_from_body
from repro.snapshot.format import config_sha256

SCENARIO = "stress-8x8"  # kmeans/tdnuca, 8x8 mesh, 1/1024 scale
CLI_FLAGS = ["run", "kmeans", "tdnuca", "--scale", "1024", "--mesh", "8x8"]


def _canon(result) -> str:
    return json.dumps(result.stats_dict(), sort_keys=True,
                      separators=(",", ":"))


class TestFingerprintIdentity:
    def test_yaml_cli_service_agree(self):
        yaml_sha = config_sha256(load_scenario(SCENARIO).to_config())
        cli_args = build_parser().parse_args(CLI_FLAGS)
        cli_sha = config_sha256(_flag_scenario(cli_args).to_config())
        by_name = scenario_from_body(SCENARIO, "run")
        by_value = scenario_from_body(
            load_scenario(SCENARIO).to_dict(), "run"
        )
        assert cli_sha == yaml_sha
        assert config_sha256(by_name.to_config()) == yaml_sha
        assert config_sha256(by_value.to_config()) == yaml_sha

    def test_service_cache_key_agrees_across_doors(self):
        scenario = load_scenario(SCENARIO)
        by_name = scenario_from_body(SCENARIO, "run")
        by_value = scenario_from_body(scenario.to_dict(), "run")
        keys = {
            request_key(sc.to_config(), "kmeans", "tdnuca", sc.seed)
            for sc in (by_name, by_value)
        }
        keys.add(
            request_key(scenario.to_config(), "kmeans", "tdnuca",
                        scenario.seed)
        )
        assert len(keys) == 1

    def test_session_kwargs_door_agrees(self):
        scenario = load_scenario(SCENARIO)
        session = Session.from_scenario(SCENARIO)
        assert config_sha256(session.config) == config_sha256(
            scenario.to_config()
        )


class TestStatsIdentity:
    def test_scenario_and_session_runs_are_byte_identical(self):
        via_scenario = run_scenario(SCENARIO)
        session = Session.from_scenario(SCENARIO)
        via_session = session.run("kmeans", "tdnuca")
        assert _canon(via_scenario) == _canon(via_session)

    def test_session_kwargs_shim_matches_scenario(self):
        # Session.run(**kwargs) re-derives a Scenario internally; the
        # programmatic equivalent of the YAML file must match it too.
        programmatic = Scenario(
            name="prog",
            workload="kmeans",
            policy="tdnuca",
            machine=load_scenario(SCENARIO).machine,
        )
        via_prog = run_scenario(programmatic)
        via_yaml = run_scenario(SCENARIO)
        assert _canon(via_prog) == _canon(via_yaml)
