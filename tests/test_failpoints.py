"""The deterministic failpoint framework: parsing, firing, env config.

These are tier-1 tests of the framework itself — cheap, no simulation.
The chaos suite (``tests/chaos/``, ``pytest -m chaos``) drives the same
registry through real worker processes.
"""

from __future__ import annotations

import time

import pytest

from repro import failpoints
from repro.failpoints import (
    FailpointError,
    Failpoints,
    PermanentFailpointError,
    parse_spec,
)


@pytest.fixture(autouse=True)
def _clean_registry(monkeypatch):
    """Every test starts from an inactive, env-free registry."""
    for var in (failpoints.FAILPOINTS_ENV, failpoints.FAILPOINTS_SEED_ENV):
        monkeypatch.delenv(var, raising=False)
    failpoints.reset()
    yield
    failpoints.reset()


class TestParsing:
    def test_count_probability_and_filters(self):
        rules = parse_spec(
            "worker.crash=1@job:lu/tdnuca; cache.write.torn=*@p:0.25@after:2"
        )
        crash, torn = rules
        assert crash.site == "worker.crash"
        assert crash.count == 1
        assert crash.filters == {"job": "lu/tdnuca"}
        assert crash.action == "kill"  # the site default
        assert torn.count is None
        assert torn.prob == 0.25
        assert torn.after == 2
        assert torn.action == "corrupt"

    def test_action_and_param_overrides(self):
        (rule,) = parse_spec("worker.crash=1@action:raise@param:x")
        assert rule.action == "raise"
        assert rule.param == "x"

    @pytest.mark.parametrize("spec, needle", [
        ("nosuch.site=1", "unknown failpoint site"),
        ("worker.crash", "missing '=COUNT'"),
        ("worker.crash=lots", "integer or '*'"),
        ("worker.crash=-1", ">= 0"),
        ("worker.crash=1@p:2.0", "within \\[0, 1\\]"),
        ("worker.crash=1@action:explode", "unknown action"),
        ("worker.crash=1@badmod", "malformed modifier"),
    ])
    def test_bad_specs_rejected_loudly(self, spec, needle):
        with pytest.raises(ValueError, match=needle):
            parse_spec(spec)

    def test_empty_entries_are_skipped(self):
        assert parse_spec(" ; ;worker.hang=1; ") != []
        assert parse_spec("") == []


class TestFiring:
    def test_count_budget_limits_firings(self):
        fp = Failpoints(parse_spec("worker.hang=2@param:0"))
        fired = [fp.fire("worker.hang") for _ in range(4)]
        assert fired == [True, True, False, False]
        assert fp.stats()["worker.hang"] == {"hits": 4, "fired": 2}

    def test_after_skips_leading_hits(self):
        fp = Failpoints(parse_spec("worker.hang=*@after:2@param:0"))
        fired = [fp.fire("worker.hang") for _ in range(4)]
        assert fired == [False, False, True, True]

    def test_exact_filter_and_numeric_ge_filter(self):
        fp = Failpoints(parse_spec(
            "worker.hang=*@job:lu/tdnuca@attempt:1@task_ge:10@param:0"
        ))
        assert not fp.fire("worker.hang", job="md5/snuca", attempt=1, task=50)
        assert not fp.fire("worker.hang", job="lu/tdnuca", attempt=2, task=50)
        assert not fp.fire("worker.hang", job="lu/tdnuca", attempt=1, task=9)
        assert fp.fire("worker.hang", job="lu/tdnuca", attempt=1, task=10)
        # Missing or non-numeric context never matches a _ge filter.
        assert not fp.fire("worker.hang", job="lu/tdnuca", attempt=1)

    def test_probability_is_seed_deterministic(self):
        def draw(seed):
            fp = Failpoints(parse_spec("worker.hang=*@p:0.5@param:0", seed))
            return [fp.fire("worker.hang") for _ in range(32)]

        assert draw(7) == draw(7)
        assert draw(7) != draw(8)
        assert any(draw(7)) and not all(draw(7))

    def test_unmatched_site_is_inert(self):
        fp = Failpoints(parse_spec("worker.hang=1@param:0"))
        assert not fp.fire("worker.crash")
        assert Failpoints([]).active is False

    def test_raise_actions_are_classified(self):
        fp = Failpoints(parse_spec(
            "worker.hang=1@action:raise;worker.oom=1@action:raise-permanent"
        ))
        with pytest.raises(FailpointError):
            fp.fire("worker.hang")
        with pytest.raises(PermanentFailpointError):
            fp.fire("worker.oom")
        # The classifier contract the queue's retry logic relies on:
        assert issubclass(FailpointError, RuntimeError)       # transient
        assert issubclass(PermanentFailpointError, ValueError)  # permanent

    def test_sleep_action_honours_param(self):
        fp = Failpoints(parse_spec("worker.hang=1@param:0.05"))
        t0 = time.monotonic()
        assert fp.fire("worker.hang")
        assert 0.04 <= time.monotonic() - t0 < 1.0

    def test_oom_action_raises_memory_error_capped(self):
        fp = Failpoints(parse_spec("worker.oom=1@param:32"))
        with pytest.raises(MemoryError, match="memory"):
            fp.fire("worker.oom")


class TestMangle:
    def test_mangle_flips_exactly_one_byte_deterministically(self):
        data = bytes(range(256)) * 4
        fp = Failpoints(parse_spec("cache.write.torn=*", seed=3))
        mangled = fp.mangle("cache.write.torn", data)
        assert mangled != data
        assert len(mangled) == len(data)
        assert sum(a != b for a, b in zip(mangled, data)) == 1
        fp2 = Failpoints(parse_spec("cache.write.torn=*", seed=3))
        assert fp2.mangle("cache.write.torn", data) == mangled

    def test_fire_ignores_corrupt_rules_and_mangle_ignores_others(self):
        fp = Failpoints(parse_spec("cache.write.torn=*;worker.hang=*@param:0"))
        assert not fp.fire("cache.write.torn")
        assert fp.mangle("worker.hang", b"abc") == b"abc"
        assert fp.fire("worker.hang")

    def test_inactive_mangle_is_identity(self):
        assert failpoints.mangle("cache.write.torn", b"xyz") == b"xyz"


class TestModuleState:
    def test_env_changes_are_picked_up(self, monkeypatch):
        assert not failpoints.get().active
        monkeypatch.setenv(failpoints.FAILPOINTS_ENV, "worker.hang=1@param:0")
        assert failpoints.get().active
        assert failpoints.active_spec() == ("worker.hang=1@param:0", 0)
        monkeypatch.delenv(failpoints.FAILPOINTS_ENV)
        assert not failpoints.get().active

    def test_env_seed_feeds_probability(self, monkeypatch):
        monkeypatch.setenv(failpoints.FAILPOINTS_ENV, "worker.hang=1@param:0")
        monkeypatch.setenv(failpoints.FAILPOINTS_SEED_ENV, "42")
        assert failpoints.active_spec() == ("worker.hang=1@param:0", 42)
        monkeypatch.setenv(failpoints.FAILPOINTS_SEED_ENV, "not-a-number")
        with pytest.raises(ValueError, match="must be an integer"):
            failpoints.get()

    def test_configure_overrides_env_until_reset(self, monkeypatch):
        monkeypatch.setenv(failpoints.FAILPOINTS_ENV, "worker.hang=1@param:0")
        failpoints.configure("worker.oom=1@action:raise")
        fp = failpoints.get()
        assert "worker.oom" in fp.spec and "worker.hang" not in fp.spec
        failpoints.reset()
        assert "worker.hang" in failpoints.get().spec


class TestDataPathIntegration:
    def test_torn_cache_write_is_quarantined_on_read(self, tmp_path):
        from repro.service.cache import ResultCache

        cache = ResultCache(tmp_path)
        failpoints.configure("cache.write.torn=1")
        cache.put("k" * 64, {"makespan_cycles": 1})
        with pytest.warns(UserWarning, match="corrupt cache entry"):
            assert cache.get("k" * 64) is None
        assert cache.corrupt == 1
        failpoints.reset()
        cache.put("k" * 64, {"makespan_cycles": 1})
        assert cache.get("k" * 64) == {"makespan_cycles": 1}

    def test_corrupt_snapshot_read_quarantines_and_falls_back(self, tmp_path):
        from repro.snapshot.format import (
            load_or_quarantine,
            read_snapshot_file,
            write_snapshot_file,
        )

        path = tmp_path / "x.snap"
        write_snapshot_file(path, {"meta": {"workload": "md5"}})
        assert read_snapshot_file(path)["meta"]["workload"] == "md5"
        failpoints.configure("snapshot.read.corrupt=1")
        with pytest.warns(UserWarning, match="corrupt snapshot"):
            assert load_or_quarantine(path) is None
        assert path.with_name(path.name + ".corrupt").exists()

    def test_torn_snapshot_write_detected_at_read(self, tmp_path):
        from repro.snapshot.format import (
            CorruptSnapshotError,
            read_snapshot_file,
            write_snapshot_file,
        )

        path = tmp_path / "y.snap"
        failpoints.configure("snapshot.write.torn=1")
        write_snapshot_file(path, {"meta": {"workload": "md5"}})
        failpoints.reset()
        with pytest.raises(CorruptSnapshotError):
            read_snapshot_file(path)
