"""The repro.api session facade."""

import warnings

import pytest

import repro
from repro.api import RunResult, Session
from repro.config import scaled_config
from repro.experiments.runner import ExperimentResult

CFG = scaled_config(1 / 1024)


class TestSessionConstruction:
    def test_reexported_from_package_root(self):
        assert repro.Session is Session
        assert repro.RunResult is RunResult

    def test_config_and_scale_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            Session(CFG, scale=1 / 64)

    def test_scale_builds_a_scaled_config(self):
        s = Session(scale=1 / 1024)
        assert s.config.llc_bank_bytes == CFG.llc_bank_bytes

    def test_default_is_the_calibrated_scale(self):
        assert Session().config.llc_bank_bytes == scaled_config(1 / 64).llc_bank_bytes

    def test_invalid_config_rejected_at_construction(self):
        from dataclasses import replace

        bad = replace(CFG, l1_bytes=-1)
        with pytest.raises(ValueError):
            Session(bad)


class TestSessionRun:
    def test_returns_runresult_delegating_stats(self):
        r = Session(CFG).run("md5", "tdnuca")
        assert isinstance(r, RunResult)
        assert isinstance(r.experiment, ExperimentResult)
        assert r.makespan == r.experiment.makespan
        assert r.machine.llc_accesses > 0
        assert r.workload == "md5" and r.policy == "tdnuca"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            Session(CFG).run("md5", "nonsense")

    def test_per_run_seed_overrides_session_seed(self):
        s = Session(CFG, seed=1)
        a = s.run("kmeans", "snuca")
        b = s.run("kmeans", "snuca", seed=2)
        c = Session(CFG, seed=2).run("kmeans", "snuca")
        assert a.makespan != b.makespan
        assert b.makespan == c.makespan

    def test_faults_do_not_leak_into_session_config(self):
        s = Session(CFG)
        faulted = s.run("md5", "snuca", faults="bank:5@task=10")
        clean = s.run("md5", "snuca")
        assert s.config.fault_spec == ""
        assert faulted.machine.faults is not None
        assert clean.machine.faults is None


class TestDeprecationShims:
    """The facade is warning-free; the 2.x shims that warned are gone."""

    def test_facade_path_emits_no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Session(CFG).run("md5", "snuca")
            Session(CFG).suite(["md5"], ["snuca"])


class TestSessionSweep:
    def test_sweep_returns_outcome(self):
        outcome = Session(CFG).sweep(["md5"], ["snuca", "tdnuca"])
        assert outcome.ok == 2 and outcome.failed == 0
        assert set(outcome.results()) == {("md5", "snuca"), ("md5", "tdnuca")}

    def test_traced_sweep_writes_one_trace_per_job(self, tmp_path):
        import json

        trace_dir = tmp_path / "traces"
        outcome = Session(CFG).sweep(
            ["md5"], ["snuca"], trace_dir=trace_dir, sample_every=16
        )
        assert outcome.ok == 1
        doc = json.loads((trace_dir / "md5-snuca.trace.json").read_text())
        assert doc["traceEvents"]
        run = outcome.result_dicts()[("md5", "snuca")]
        assert "trace" in run and "timeline" in run
