"""Experiment runner: end-to-end (workload x policy) runs at tiny scale."""

import pytest

from repro.config import scaled_config
from repro.api import Session
from repro.experiments.runner import default_config

# Small but non-degenerate scale; module-scoped cache keeps this affordable.
CFG = scaled_config(1 / 1024)


@pytest.fixture(scope="module")
def md5_results():
    return {
        pol: Session(CFG).run("md5", pol)
        for pol in ("snuca", "rnuca", "tdnuca", "tdnuca-bypass-only", "tdnuca-noisa")
    }


class TestRunExperiment:
    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            Session(CFG).run("md5", "hnuca")

    def test_result_fields(self, md5_results):
        r = md5_results["snuca"]
        assert r.workload == "md5"
        assert r.policy == "snuca"
        assert r.makespan > 0
        assert r.execution.tasks_executed == 128
        assert r.rnuca_census is not None
        assert r.unique_blocks > 0

    def test_snuca_has_no_tdnuca_stats(self, md5_results):
        r = md5_results["snuca"]
        assert r.runtime is None
        assert r.isa is None

    def test_tdnuca_collects_runtime_stats(self, md5_results):
        r = md5_results["tdnuca"]
        assert r.runtime is not None
        assert r.runtime.decisions > 0
        assert r.isa.registers_executed > 0
        assert "dep_category_blocks" in r.extra

    def test_md5_everything_bypassed(self, md5_results):
        r = md5_results["tdnuca"]
        cats = r.extra["dep_category_blocks"]
        total = r.extra["dep_blocks_total"]
        assert cats["not_reused"] / total > 0.95

    def test_md5_tdnuca_cuts_llc_accesses(self, md5_results):
        # At 1/1024 scale the untracked scratch traffic floor is a large
        # fraction of accesses, so the cut is milder than the paper's 0.14x.
        s = md5_results["snuca"].machine.llc_accesses
        t = md5_results["tdnuca"].machine.llc_accesses
        assert t < 0.6 * s

    def test_md5_tdnuca_not_slower(self, md5_results):
        assert md5_results["tdnuca"].makespan <= md5_results["snuca"].makespan * 1.02

    def test_bypass_only_matches_full_on_md5(self, md5_results):
        """Paper Fig. 15: pure-streaming benchmarks gain nothing from the
        placement/replication rules."""
        full = md5_results["tdnuca"].makespan
        byp = md5_results["tdnuca-bypass-only"].makespan
        assert abs(full - byp) / full < 0.05

    def test_noisa_close_to_snuca(self, md5_results):
        """Section V-E: extensions-on/ISA-off behaves like S-NUCA."""
        s = md5_results["snuca"]
        n = md5_results["tdnuca-noisa"]
        assert n.machine.llc_accesses == pytest.approx(s.machine.llc_accesses, rel=0.01)
        assert abs(n.makespan - s.makespan) / s.makespan < 0.05

    def test_rnuca_plausible(self, md5_results):
        r = md5_results["rnuca"]
        assert r.machine.mean_nuca_distance < md5_results["snuca"].machine.mean_nuca_distance


class TestRunSuite:
    def test_suite_keys(self):
        res = Session(CFG).suite(["knn"], ["snuca", "tdnuca"])
        assert set(res) == {("knn", "snuca"), ("knn", "tdnuca")}

    def test_default_config_scale(self):
        cfg = default_config()
        assert cfg.capacity_scale == pytest.approx(1 / 64)


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = Session(CFG, seed=5).run("kmeans", "tdnuca")
        b = Session(CFG, seed=5).run("kmeans", "tdnuca")
        assert a.makespan == b.makespan
        assert a.machine.llc_accesses == b.machine.llc_accesses
        assert a.machine.router_bytes == b.machine.router_bytes


class TestRRTLatencySweep:
    def test_latency_increases_makespan(self):
        fast = Session(CFG).run("knn", "tdnuca", rrt_lookup_cycles=0)
        slow = Session(CFG).run("knn", "tdnuca", rrt_lookup_cycles=4)
        assert slow.makespan > fast.makespan
