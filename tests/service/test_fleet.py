"""Fleet coordination: leases, fenced claims, stealing, shared poison.

Everything here drives :class:`FleetNode` instances (and, for version
skew, one :class:`JobQueue`'s fleet tick) directly over one shared
``tmp_path`` fleet directory — no servers, no subprocesses, tiny lease
timeouts.  The multi-server kill/fence scenarios live in
``test_fleet_chaos.py`` (``-m chaos``) and ``scripts/fleet_smoke.py``.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
import warnings

import pytest

from repro import failpoints
from repro.cli import main
from repro.service.cache import ResultCache
from repro.service.fleet import (
    DEAD_FACTOR,
    DEFAULT_HOST_LEASE_TIMEOUT,
    FleetNode,
    claim_matches,
    default_host_id,
    fleet_status,
    job_key,
)
from repro.service.queue import JobQueue, service_form
from tests.conftest import run_of, sweep_of

#: the serialized form of a job: its service-form scenario's to_dict().
SPEC = {"scenario": 1, "name": "md5/tdnuca", "workload": "md5",
        "policy": "tdnuca", "machine": {"scale": 2048}}


def at_scale(scale):
    return {**SPEC, "machine": {"scale": scale}}


def node(tmp_path, host, **kw):
    kw.setdefault("lease_timeout", 0.05)
    return FleetNode(tmp_path / "fleet", host_id=host, **kw)


class TestIdentity:
    def test_job_key_is_stable_and_order_insensitive(self):
        a = job_key({"workload": "md5", "scale": 2048})
        b = job_key({"scale": 2048, "workload": "md5"})
        assert a == b
        assert len(a) == 16

    def test_job_key_separates_specs(self):
        assert job_key(SPEC) != job_key(at_scale(512))

    def test_default_host_id_carries_the_pid(self):
        assert default_host_id().endswith(f"-{os.getpid()}")

    def test_host_id_must_be_a_plain_file_name(self, tmp_path):
        with pytest.raises(ValueError):
            node(tmp_path, "a/b")
        with pytest.raises(ValueError):
            node(tmp_path, ".hidden")

    def test_lease_timeout_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            node(tmp_path, "a", lease_timeout=0)


class TestHostLease:
    def test_register_heartbeat_deregister_roundtrip(self, tmp_path):
        n = node(tmp_path, "a")
        n.register()
        lease = json.loads(n.host_path("a").read_text())
        assert lease["host_id"] == "a"
        assert lease["pid"] == os.getpid()
        seq0 = lease["seq"]
        n.heartbeat()
        assert json.loads(n.host_path("a").read_text())["seq"] == seq0 + 1
        n.deregister()
        assert not n.host_path("a").is_file()

    def test_scan_walks_alive_suspect_dead_on_observed_silence(
        self, tmp_path
    ):
        a, b = node(tmp_path, "a"), node(tmp_path, "b")
        a.register()
        b.register()
        # First sighting is alive: we cannot know how long the host was
        # silent before we started watching.
        assert a.scan()["b"] == "alive"
        time.sleep(0.06)
        assert a.scan()["b"] == "suspect"
        time.sleep(0.06)  # past DEAD_FACTOR * lease_timeout of silence
        assert a.scan()["b"] == "dead"
        b.heartbeat()  # seq advance resurrects it
        assert a.scan()["b"] == "alive"

    def test_liveness_ignores_wall_clock_stamps(self, tmp_path):
        """An NTP step (absurd ``stamped_at``) must not affect liveness:
        only seq advances observed on the scanner's monotonic clock do."""
        a, b = node(tmp_path, "a"), node(tmp_path, "b")
        a.register()
        b.register()
        a.scan()
        for _ in range(3):
            b.heartbeat()
            lease = json.loads(b.host_path("b").read_text())
            lease["stamped_at"] = 0.0  # wall clock stepped decades back
            b.host_path("b").write_text(json.dumps(lease))
            time.sleep(0.06)
            assert a.scan()["b"] == "alive"

    def test_host_state_gone_and_self(self, tmp_path):
        a = node(tmp_path, "a")
        a.register()
        assert a.host_state("a") == "alive"
        assert a.host_state("nobody") == "gone"

    def test_dead_factor_and_default_are_sane(self):
        assert DEAD_FACTOR == 2.0
        assert DEFAULT_HOST_LEASE_TIMEOUT > 0


class TestClaims:
    def test_fresh_claim_starts_at_epoch_one(self, tmp_path):
        a = node(tmp_path, "a")
        key = job_key(SPEC)
        handle = a.try_claim(key, SPEC)
        assert handle is not None and handle.epoch == 1
        assert claim_matches(a.root, key, "a", 1)
        assert not claim_matches(a.root, key, "a", 2)
        assert not claim_matches(a.root, key, "b", 1)

    def test_claim_is_idempotent_while_held(self, tmp_path):
        a = node(tmp_path, "a")
        key = job_key(SPEC)
        first = a.try_claim(key, SPEC)
        assert a.try_claim(key, SPEC) is first

    def test_live_owner_blocks_contenders(self, tmp_path):
        a, b = node(tmp_path, "a"), node(tmp_path, "b")
        a.register()
        b.register()
        b.scan()
        key = job_key(SPEC)
        assert a.try_claim(key, SPEC) is not None
        assert b.try_claim(key, SPEC) is None
        assert b.claim_conflicts == 1

    def test_dead_owner_takeover_bumps_epoch_and_death_count(
        self, tmp_path
    ):
        a, b = node(tmp_path, "a"), node(tmp_path, "b")
        key = job_key(SPEC)
        a.register()
        assert a.try_claim(key, SPEC).epoch == 1
        a.host_path("a").unlink()  # the host is gone, lease and all
        handle = b.try_claim(key, SPEC)
        assert handle is not None and handle.epoch == 2
        claim = json.loads(b.claim_path(key).read_text())
        assert claim["host_deaths"] == 1
        assert claim["prev_owner"] == "a"
        # the old owner's handle no longer passes the fence
        assert not claim_matches(b.root, key, "a", 1)
        assert claim_matches(b.root, key, "b", 2)

    def test_reincarnated_host_fences_its_own_stragglers(self, tmp_path):
        """The same host id coming back (crash + restart, pid reused in
        the id) must still bump the epoch so children of the old
        incarnation are fenced."""
        key = job_key(SPEC)
        old = node(tmp_path, "a")
        old.register()
        assert old.try_claim(key, SPEC).epoch == 1
        fresh = node(tmp_path, "a")  # no in-memory held state
        handle = fresh.try_claim(key, SPEC)
        assert handle is not None and handle.epoch == 2
        assert not claim_matches(fresh.root, key, "a", 1)

    def test_release_done_deletes_the_claim(self, tmp_path):
        a = node(tmp_path, "a")
        key = job_key(SPEC)
        handle = a.try_claim(key, SPEC)
        a.release(handle, done=True)
        assert not a.claim_path(key).is_file()
        assert a.held(key) is None

    def test_release_for_requeue_goes_ownerless_same_epoch(self, tmp_path):
        a, b = node(tmp_path, "a"), node(tmp_path, "b")
        key = job_key(SPEC)
        handle = a.try_claim(key, SPEC)
        a.release(handle, done=False, requeue=True)
        claim = json.loads(a.claim_path(key).read_text())
        assert claim["owner"] is None and claim["epoch"] == 1
        assert a.queue_entry_path("a", key).is_file()
        # a released claim is taken without a death mark
        handle_b = b.try_claim(key, SPEC)
        assert handle_b is not None and handle_b.epoch == 2
        assert json.loads(b.claim_path(key).read_text())["host_deaths"] == 0

    def test_fenced_release_is_counted_and_harmless(self, tmp_path):
        a, b = node(tmp_path, "a"), node(tmp_path, "b")
        key = job_key(SPEC)
        stale = a.try_claim(key, SPEC)
        # "a" never registered a lease, so b sees its owner as gone
        taken = b.try_claim(key, SPEC)
        assert taken is not None
        a.release(stale, done=True)  # stale owner wakes up and "finishes"
        assert a.fenced == 1
        # b's claim survives untouched
        assert claim_matches(b.root, key, "b", taken.epoch)

    def test_wedged_epoch_marker_is_walked_after_a_lease_timeout(
        self, tmp_path
    ):
        """A contender that created the epoch marker and died before
        rewriting the claim must not wedge the key forever."""
        a, b = node(tmp_path, "a"), node(tmp_path, "b")
        key = job_key(SPEC)
        a.register()
        a.try_claim(key, SPEC)
        a.host_path("a").unlink()
        # simulate a dead contender that won marker e2 and vanished
        (b.claims_dir / f"{key}.e2").write_bytes(b"ghost")
        assert b.try_claim(key, SPEC) is None  # first sight: wait it out
        time.sleep(0.06)  # a full lease_timeout on b's clock
        handle = b.try_claim(key, SPEC)
        assert handle is not None and handle.epoch == 3

    def test_fleet_poison_blocks_claims(self, tmp_path):
        a, b = node(tmp_path, "a"), node(tmp_path, "b")
        key = job_key(SPEC)
        a.poison(key, {"kind": "fleet-poison-quarantine", "job_key": key})
        assert a.poisoned(key) is not None
        assert b.try_claim(key, SPEC) is None


class TestReclaim:
    def test_dead_owners_claims_are_reclaimed(self, tmp_path):
        a, b = node(tmp_path, "a"), node(tmp_path, "b")
        key = job_key(SPEC)
        a.register()
        a.try_claim(key, SPEC)
        a.enqueue(key, SPEC, job_id="j1")
        a.host_path("a").unlink()
        reclaimed = b.reclaim_dead()
        assert len(reclaimed) == 1
        handle, claim = reclaimed[0]
        assert handle.key == key and handle.epoch == 2
        assert claim["owner"] == "a"
        assert b.reclaims == 1
        # the dead owner's queue entry went with it
        assert not b.queue_entry_path("a", key).is_file()

    def test_own_held_claims_are_not_reclaimed(self, tmp_path):
        a = node(tmp_path, "a")
        a.register()
        a.try_claim(job_key(SPEC), SPEC)
        assert a.reclaim_dead() == []

    def test_live_owner_claims_are_not_reclaimed(self, tmp_path):
        a, b = node(tmp_path, "a"), node(tmp_path, "b")
        a.register()
        b.register()
        b.scan()
        a.try_claim(job_key(SPEC), SPEC)
        assert b.reclaim_dead() == []

    def test_job_killing_too_many_hosts_is_quarantined_fleet_wide(
        self, tmp_path
    ):
        a = node(tmp_path, "a", poison_after=2)
        b = node(tmp_path, "b", poison_after=2)
        key = job_key(SPEC)
        a.register()
        a.try_claim(key, SPEC)
        claim = json.loads(a.claim_path(key).read_text())
        claim["host_deaths"] = 1  # already killed one host before
        a.claim_path(key).write_text(json.dumps(claim))
        a.host_path("a").unlink()
        assert b.reclaim_dead() == []  # quarantined, not resumed
        assert b.poisoned_fleet == 1
        bundle = json.loads(b.poison_path(key).read_text())
        assert bundle["kind"] == "fleet-poison-quarantine"
        assert bundle["host_deaths"] == 2
        assert not b.claim_path(key).is_file()
        assert b.try_claim(key, SPEC) is None


class TestStealing:
    def test_no_steal_from_live_peer_within_margin(self, tmp_path):
        a, b = node(tmp_path, "a"), node(tmp_path, "b")
        a.register()
        b.register()
        b.scan()
        a.enqueue(job_key(SPEC), SPEC, job_id="j1")
        assert b.steal(own_depth=0) == []

    def test_steal_from_loaded_live_peer_is_bounded(self, tmp_path):
        a = node(tmp_path, "a", steal_margin=1)
        b = node(tmp_path, "b", steal_margin=1)
        a.register()
        b.register()
        b.scan()
        specs = [at_scale(s) for s in (128, 256, 512)]
        for i, spec in enumerate(specs):
            a.enqueue(job_key(spec), spec, job_id=f"j{i}")
        stolen = b.steal(own_depth=0, limit=1)
        assert len(stolen) == 1
        handle, entry = stolen[0]
        assert entry["host"] == "a"
        assert b.steals == 1
        # the stolen entry is gone; the rest of the shard remains
        assert sum(1 for _ in (b.queue_root / "a").glob("*.json")) == 2
        assert claim_matches(b.root, handle.key, "b", handle.epoch)

    def test_dead_peer_shard_is_always_stealable(self, tmp_path):
        a, b = node(tmp_path, "a"), node(tmp_path, "b")
        a.register()
        a.enqueue(job_key(SPEC), SPEC, job_id="j1")
        a.host_path("a").unlink()
        stolen = b.steal(own_depth=5)  # own backlog does not matter
        assert len(stolen) == 1

    def test_raced_steal_is_a_noop_not_a_double_run(self, tmp_path):
        a, b = node(tmp_path, "a"), node(tmp_path, "b")
        a.register()
        key = job_key(SPEC)
        a.enqueue(key, SPEC, job_id="j1")
        a.try_claim(key, SPEC)  # the owner got to it first
        a.host_path("a").unlink()
        # b sees the entry in a dead shard, but the claim is contested:
        # takeover wins (dead owner) — that is still exactly one runner.
        stolen = b.steal(own_depth=0)
        assert len(stolen) == 1
        assert json.loads(b.claim_path(key).read_text())["epoch"] == 2


class TestStatusAndInspection:
    def test_status_gauges_shape(self, tmp_path):
        a = node(tmp_path, "a")
        a.register()
        status = a.status()
        for key in (
            "host_id", "lease_timeout", "hosts", "claims_held",
            "claims_won", "claim_conflicts", "steals", "steal_races",
            "reclaims", "releases", "fenced_writes", "poisoned_fleet",
        ):
            assert key in status, key
        assert status["hosts"]["alive"] >= 1

    def test_fleet_status_reads_a_dead_fleet_from_disk(self, tmp_path):
        a, b = node(tmp_path, "a"), node(tmp_path, "b")
        a.register()
        b.register()
        key = job_key(SPEC)
        a.try_claim(key, SPEC)
        b.enqueue(job_key(at_scale(64)), at_scale(64), job_id="j2")
        status = fleet_status(tmp_path / "fleet")
        assert {h["host_id"] for h in status["hosts"]} == {"a", "b"}
        assert status["claims"][0]["owner"] == "a"
        assert status["queued"]["b"] == 1
        assert status["results"] == 0 and status["snapshots"] == 0

    def test_fleet_status_labels_run_and_sweep_claims(self, tmp_path, capsys):
        a = node(tmp_path, "a")
        a.register()
        for scenario in (
            run_of("md5", "tdnuca", scale=2048),
            sweep_of(["md5"], ["snuca", "tdnuca"], scale=2048),
        ):
            form = service_form(scenario).to_dict()
            assert a.try_claim(job_key(form), form) is not None
        status = fleet_status(tmp_path / "fleet")
        assert sorted(c["label"] for c in status["claims"]) == [
            "md5/tdnuca", "sweep:1x2",
        ]
        assert main(["fleet", "status", str(tmp_path / "fleet")]) == 0
        out = capsys.readouterr().out
        assert "md5/tdnuca" in out and "sweep:1x2" in out

    def test_fleet_status_missing_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            fleet_status(tmp_path / "nope")


class TestFailpointSites:
    def test_fleet_sites_are_registered(self):
        for site in (
            "fleet.claim.stall", "fleet.lease.skew",
            "fleet.publish.torn", "fleet.steal.race",
        ):
            assert site in failpoints.SITES, site

    def test_claim_stall_site_fires_inside_the_claim_window(self, tmp_path):
        failpoints.configure("fleet.claim.stall=1@action:raise")
        try:
            a = node(tmp_path, "a")
            with pytest.raises(failpoints.FailpointError):
                a.try_claim(job_key(SPEC), SPEC)
        finally:
            failpoints.reset()


class TestVersionSkew:
    def test_a_3x_flat_claim_is_settled_once_and_not_readopted(
        self, tmp_path
    ):
        """A claim written by a 3.x host holds a flat ``spec`` and no
        scenario: the first tick warns and settles it, the next finds
        nothing to adopt."""
        fleet = FleetNode(tmp_path / "fleet", host_id="h4",
                          lease_timeout=30.0)
        key = "0123456789abcdef"
        flat = {"kind": "run", "workload": "md5", "policy": "tdnuca",
                "seed": 0, "scale": 2048, "faults": "", "strict": False,
                "kernel": "auto"}
        # owned by a host with no lease file: gone, so reclaimable now
        fleet.claim_path(key).write_text(json.dumps({
            "key": key, "spec": flat, "owner": "h3", "epoch": 1,
            "host_deaths": 0, "prev_owner": None,
        }))
        queue = JobQueue(
            workers=1, spool_dir=tmp_path / "spool",
            cache=ResultCache(tmp_path / "cache"), fleet=fleet,
        )

        async def go():
            await queue.start()
            try:
                with pytest.warns(UserWarning,
                                  match=f"unparseable fleet claim {key}"):
                    queue._fleet_tick()
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    queue._fleet_tick()
            finally:
                await queue.drain(grace=0.5)

        asyncio.run(go())
        assert not fleet.claim_path(key).exists()
        assert fleet.reclaims == 1
        assert queue.adopted == 0 and queue.jobs == {}
        assert fleet_status(tmp_path / "fleet")["claims"] == []

    def test_a_4_0_claim_that_selects_a_kernel_is_settled_once(
        self, tmp_path
    ):
        """A 4.0 host wrote the kernel into a claim's scenario when the run
        chose one; 5.0 refuses that scenario, so the first tick warns and
        settles the claim through the same path as a 3.x one."""
        fleet = FleetNode(tmp_path / "fleet", host_id="h4",
                          lease_timeout=30.0)
        key = "fedcba9876543210"
        scenario = {"scenario": 1, "name": "md5/tdnuca", "workload": "md5",
                    "policy": "tdnuca", "machine": {"scale": 2048},
                    "kernel": "vector"}
        fleet.claim_path(key).write_text(json.dumps({
            "key": key, "scenario": scenario, "owner": "h3", "epoch": 1,
            "host_deaths": 0, "prev_owner": None,
        }))
        queue = JobQueue(
            workers=1, spool_dir=tmp_path / "spool",
            cache=ResultCache(tmp_path / "cache"), fleet=fleet,
        )

        async def go():
            await queue.start()
            try:
                with pytest.warns(UserWarning, match="REPRO_KERNEL"):
                    queue._fleet_tick()
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    queue._fleet_tick()
            finally:
                await queue.drain(grace=0.5)

        asyncio.run(go())
        assert not fleet.claim_path(key).exists()
        assert fleet.reclaims == 1
        assert queue.adopted == 0 and queue.jobs == {}
        assert fleet_status(tmp_path / "fleet")["claims"] == []
