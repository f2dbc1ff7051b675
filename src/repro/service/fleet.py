"""Shared-directory fleet coordination: leases, fencing epochs, stealing.

This module lets N ``repro serve`` processes — on one box or over a
shared filesystem (NFS) — operate as **one logical service** whose crash
domain is the fleet, not the host.  Everything is plain files under one
``--fleet-dir``; there is no network protocol between hosts and no
coordinator to elect.  The layout::

    fleet-dir/
      hosts/<host>.json      host leases (heartbeat sequence numbers)
      claims/<key>.json      job ownership (owner, fencing epoch, scenario)
      claims/<key>.e<N>      epoch markers (exclusive reclaim arbitration)
      queue/<host>/<key>.json  per-host shards of queued jobs (steal targets)
      results/               the shared :class:`ResultCache` fleet tier
      spool/                 shared snapshot spool (byte-identical resume)
      poison/<key>.json      fleet-wide poison quarantine bundles

The correctness rules, in order of importance:

* **Clock discipline** — hosts never compare wall clocks.  A lease
  carries a monotonically increasing ``seq``; each peer remembers, on its
  *own* ``time.monotonic()`` clock, when it last saw a lease's ``seq``
  advance.  A host is *suspect* past ``lease_timeout`` of observed
  silence and *dead* past twice that, so an NTP step can never make a
  healthy peer look dead (the same discipline PR 7's worker leases now
  use in-process).  Wall-clock stamps in the files are diagnostics only.
* **Fencing epochs** — a claim carries an integer ``epoch`` that only
  ever increases for a given key.  Taking over a dead owner's claim is
  arbitrated by exclusively creating (``os.link``) an epoch marker file
  ``<key>.e<N>``: exactly one contender wins epoch N.  A stale owner that
  wakes up after reclamation fails its fence check (claim file no longer
  names it at its epoch) and must abandon the job without publishing.
* **Single-writer publish** — results enter the shared store via
  :func:`repro.ioutils.atomic_publish` (write-fsync-link), so a torn or
  duplicate publish is structurally impossible: readers observe either
  no entry or one complete, CRC-framed entry, and of N racing writers
  exactly one lands.  Fencing is therefore belt *and* suspenders: even
  the unfenced race window between check and link can only produce the
  deterministic, byte-identical bytes a correct owner would have written.
* **Work conservation** — queued jobs are visible in the submitting
  host's queue shard; an idle peer steals from a loaded or dead one, but
  only ever *through* the claim protocol, so no job runs twice.  A dead
  host's in-flight claims are reclaimed the same way and resumed from the
  shared spool snapshot (identity-checked via ``config_sha256``).
* **Fleet-wide poison** — a claim records how many owners died holding
  it (``host_deaths``); at ``poison_after`` the job is quarantined for
  the whole fleet with a diagnostic bundle under ``poison/``, exactly as
  PR 7 quarantines jobs that kill multiple workers within one host.

Failure injection: ``fleet.claim.stall`` (inside the claim window),
``fleet.lease.skew`` (stalls heartbeats so a live host looks dead),
``fleet.publish.torn`` (mangles a shared-store publish, which the CRC
framing must catch), ``fleet.steal.race`` (widens the pick-then-claim
window).  All stdlib-only, like the rest of the service stack.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro import failpoints
from repro.ioutils import atomic_publish, atomic_write

__all__ = [
    "DEFAULT_HOST_LEASE_TIMEOUT",
    "ClaimHandle",
    "FleetNode",
    "claim_matches",
    "default_host_id",
    "fleet_status",
    "job_key",
]

#: observed heartbeat silence after which a host lease is suspect; dead
#: (and its work reclaimable) past twice this.
DEFAULT_HOST_LEASE_TIMEOUT = 15.0

#: a host is dead — claims reclaimable, shard stealable — past
#: ``DEAD_FACTOR * lease_timeout`` of observed heartbeat silence.
DEAD_FACTOR = 2.0

#: how many epoch steps a taker may walk past a wedged marker in one
#: call (each step requires the marker to have been stale a full
#: lease_timeout on the local monotonic clock).
_MAX_EPOCH_WALK = 8


def job_key(scenario_dict: dict[str, Any]) -> str:
    """Stable identity of a job (16 hex chars): its poison-registry,
    fleet-claim and queue-shard key.

    Built over the canonical ``to_dict()`` of the job's service-form
    scenario (:func:`repro.service.queue.service_form`), so the same run
    submitted to any host — or re-read from a claim file — has the same
    key.
    """
    blob = json.dumps(scenario_dict, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def default_host_id() -> str:
    """``<hostname>-<pid>``: unique per server process, stable within it."""
    return f"{socket.gethostname()}-{os.getpid()}"


def _read_json(path: Path) -> dict[str, Any] | None:
    """Tolerant read: a missing or mid-rename file is simply not there."""
    try:
        raw = path.read_bytes()
    except OSError:
        return None
    try:
        doc = json.loads(raw)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None


def claim_matches(
    fleet_dir: str | Path, key: str, owner: str, epoch: int
) -> bool:
    """The fence predicate: does ``claims/<key>.json`` still name this
    (owner, epoch)?  Called from worker children immediately before a
    shared-store publish; importable without a :class:`FleetNode`."""
    claim = _read_json(Path(fleet_dir) / "claims" / f"{key}.json")
    return (
        claim is not None
        and claim.get("owner") == owner
        and claim.get("epoch") == epoch
    )


@dataclass(frozen=True)
class ClaimHandle:
    """Proof of ownership of one job key at one fencing epoch."""

    key: str
    epoch: int
    scenario: dict[str, Any]


class FleetNode:
    """One host's view of, and hand in, the shared fleet directory.

    Thread-safe: the server's asyncio loop drives the periodic tick
    (heartbeat/scan/reclaim/steal) while supervision threads report
    fence losses; counters and the peer table share one lock.  All file
    operations are small JSON reads and atomic writes.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        host_id: str | None = None,
        lease_timeout: float = DEFAULT_HOST_LEASE_TIMEOUT,
        addr: str = "",
        poison_after: int = 3,
        steal_margin: int = 1,
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        if poison_after < 1:
            raise ValueError("poison_after must be >= 1")
        self.root = Path(root)
        self.host_id = host_id or default_host_id()
        if "/" in self.host_id or self.host_id.startswith("."):
            raise ValueError(
                f"host_id {self.host_id!r} must be a plain file name"
            )
        self.lease_timeout = lease_timeout
        self.addr = addr
        self.poison_after = poison_after
        #: a live peer is only stolen from when its backlog exceeds ours
        #: by more than this margin (dead peers are always fair game).
        self.steal_margin = steal_margin
        self.hosts_dir = self.root / "hosts"
        self.claims_dir = self.root / "claims"
        self.queue_root = self.root / "queue"
        self.results_dir = self.root / "results"
        self.spool_dir = self.root / "spool"
        self.poison_dir = self.root / "poison"
        for d in (
            self.hosts_dir, self.claims_dir, self.queue_root / self.host_id,
            self.results_dir, self.spool_dir, self.poison_dir,
        ):
            d.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._seq = 0
        self._registered = False
        #: claims this process holds: key -> ClaimHandle.
        self._held: dict[str, ClaimHandle] = {}
        #: peer observation table: host -> [last seq, monotonic at change].
        self._peers: dict[str, list[float]] = {}
        #: epoch markers we are waiting out: path -> first-seen monotonic.
        self._stale_markers: dict[str, float] = {}
        self._last_scan: dict[str, str] = {}
        # gauges (all monotonic counters except claims_held)
        self.claims_won = 0
        self.claim_conflicts = 0
        self.steals = 0
        self.steal_races = 0
        self.reclaims = 0
        self.releases = 0
        self.fenced = 0
        self.poisoned_fleet = 0

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------

    def host_path(self, host: str) -> Path:
        return self.hosts_dir / f"{host}.json"

    def claim_path(self, key: str) -> Path:
        return self.claims_dir / f"{key}.json"

    def queue_entry_path(self, host: str, key: str) -> Path:
        return self.queue_root / host / f"{key}.json"

    def poison_path(self, key: str) -> Path:
        return self.poison_dir / f"{key}.json"

    # ------------------------------------------------------------------
    # host lease
    # ------------------------------------------------------------------

    def register(self) -> None:
        """Write the initial host lease; idempotent."""
        self._registered = True
        self._write_lease()

    def heartbeat(self) -> None:
        """Advance the lease's ``seq``; peers observing the advance on
        their own monotonic clocks is what 'alive' means."""
        failpoints.fire("fleet.lease.skew", host=self.host_id)
        with self._lock:
            self._seq += 1
        self._write_lease()

    def _write_lease(self) -> None:
        lease = {
            "host_id": self.host_id,
            "pid": os.getpid(),
            "addr": self.addr,
            "seq": self._seq,
            "lease_timeout": self.lease_timeout,
            # wall-clock stamps are DIAGNOSTIC ONLY (repro fleet status);
            # liveness is judged from seq advances on observer clocks.
            "stamped_at": time.time(),
        }
        with atomic_write(self.host_path(self.host_id)) as fh:
            json.dump(lease, fh, sort_keys=True)

    def deregister(self) -> None:
        """Remove the host lease (clean shutdown).  Claims are released
        separately by the queue's drain path, before this."""
        self._registered = False
        try:
            self.host_path(self.host_id).unlink()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # failure detection
    # ------------------------------------------------------------------

    def scan(self) -> dict[str, str]:
        """Refresh the peer table; returns ``host -> state``.

        States: ``alive`` (seq advanced within ``lease_timeout`` of *our*
        monotonic observation), ``suspect`` (silent past it), ``dead``
        (silent past ``DEAD_FACTOR`` times it — reclaimable).  A host
        first seen now starts ``alive``: we cannot know how long it was
        silent before we started watching.
        """
        now = time.monotonic()
        states: dict[str, str] = {}
        seen: set[str] = set()
        for path in sorted(self.hosts_dir.glob("*.json")):
            lease = _read_json(path)
            if lease is None:
                continue
            host = str(lease.get("host_id") or path.stem)
            seen.add(host)
            if host == self.host_id:
                states[host] = "alive"
                continue
            seq = float(lease.get("seq", 0))
            with self._lock:
                view = self._peers.get(host)
                if view is None or seq > view[0]:
                    self._peers[host] = [seq, now]
                    age = 0.0
                else:
                    age = now - view[1]
            if age <= self.lease_timeout:
                states[host] = "alive"
            elif age <= DEAD_FACTOR * self.lease_timeout:
                states[host] = "suspect"
            else:
                states[host] = "dead"
        with self._lock:
            for host in list(self._peers):
                if host not in seen:
                    del self._peers[host]
            self._last_scan = states
        return states

    def host_state(self, host: str) -> str:
        """Last-scanned state; ``gone`` when the lease file is absent
        (clean shutdown — or a crash severe enough to predate watching),
        ``alive`` for a present-but-not-yet-scanned lease (conservative:
        never reclaim from a host we have not observed being silent)."""
        if host == self.host_id:
            return "alive"
        if not self.host_path(host).is_file():
            return "gone"
        return self._last_scan.get(host, "alive")

    # ------------------------------------------------------------------
    # claims: the lease-fenced ownership protocol
    # ------------------------------------------------------------------

    def held(self, key: str) -> ClaimHandle | None:
        with self._lock:
            return self._held.get(key)

    def try_claim(
        self, key: str, scenario: dict[str, Any], *, origin: str = "submit"
    ) -> ClaimHandle | None:
        """Acquire ownership of ``key``; ``None`` when someone else owns
        it (or won the race).  Never blocks beyond file I/O; callers poll.
        """
        if self.poison_path(key).is_file():
            return None
        held = self.held(key)
        if held is not None:
            return held
        path = self.claim_path(key)
        existing = _read_json(path)
        if existing is None and not path.is_file():
            failpoints.fire(
                "fleet.claim.stall", key=key, host=self.host_id, origin=origin
            )
            claim = self._claim_doc(key, scenario, epoch=1, host_deaths=0)
            if atomic_publish(path, _dump(claim)):
                return self._record_claim(key, 1, scenario)
            existing = _read_json(path)
            if existing is None:
                return None  # raced and lost; the winner is mid-write
        if existing is None:
            return None
        owner = existing.get("owner")
        if owner == self.host_id:
            # A previous incarnation of this host id (we crashed and came
            # back): fall through to takeover so the epoch still fences
            # any straggler child from the old process.
            return self._take_over(key, existing, origin=origin)
        if owner:
            if self.host_state(str(owner)) not in ("dead", "gone"):
                with self._lock:
                    self.claim_conflicts += 1
                return None
            return self._take_over(key, existing, origin=origin)
        # released claim (owner drained): take over without a death mark.
        return self._take_over(key, existing, origin=origin, death=False)

    def _claim_doc(
        self, key: str, scenario: dict[str, Any], *, epoch: int,
        host_deaths: int, prev_owner: str | None = None,
    ) -> dict[str, Any]:
        return {
            "key": key,
            "scenario": scenario,
            "owner": self.host_id,
            "epoch": epoch,
            "host_deaths": host_deaths,
            "prev_owner": prev_owner,
            "claimed_at": time.time(),  # diagnostic only
        }

    def _record_claim(
        self, key: str, epoch: int, scenario: dict[str, Any]
    ) -> ClaimHandle:
        handle = ClaimHandle(key=key, epoch=epoch, scenario=scenario)
        with self._lock:
            self._held[key] = handle
            self.claims_won += 1
        return handle

    def _take_over(
        self,
        key: str,
        existing: dict[str, Any],
        *,
        origin: str,
        death: bool = True,
    ) -> ClaimHandle | None:
        """Bump the fencing epoch and seize a dead/released claim.

        Arbitration: exactly one contender exclusively creates the epoch
        marker ``<key>.e<N>``; losers back off and re-observe.  A marker
        whose winner died before rewriting the claim would wedge the key,
        so a marker observed unchanged for a full ``lease_timeout`` lets
        the next contender walk one epoch higher — the claim *file*
        remains the single fencing truth either way.
        """
        base_epoch = int(existing.get("epoch", 0))
        scenario = existing.get("scenario") or {}
        now = time.monotonic()
        for step in range(1, _MAX_EPOCH_WALK + 1):
            epoch = base_epoch + step
            marker = self.claims_dir / f"{key}.e{epoch}"
            failpoints.fire(
                "fleet.claim.stall", key=key, host=self.host_id, origin=origin
            )
            if atomic_publish(marker, self.host_id.encode("utf-8")):
                host_deaths = int(existing.get("host_deaths", 0))
                if death and existing.get("owner"):
                    host_deaths += 1
                claim = self._claim_doc(
                    key, scenario, epoch=epoch, host_deaths=host_deaths,
                    prev_owner=existing.get("owner") or None,
                )
                with atomic_write(self.claim_path(key)) as fh:
                    fh.write(_dump(claim).decode("utf-8"))
                with self._lock:
                    self._stale_markers.pop(str(marker), None)
                return self._record_claim(key, epoch, scenario)
            # Marker already exists: someone else is (or was) taking this
            # epoch.  Only walk past it once it has sat there a full
            # lease_timeout on OUR clock with the claim file unchanged.
            with self._lock:
                first_seen = self._stale_markers.setdefault(str(marker), now)
            if now - first_seen < self.lease_timeout:
                with self._lock:
                    self.claim_conflicts += 1
                return None
        return None

    def fence_ok(self, handle: ClaimHandle) -> bool:
        """Is this handle still the fleet's notion of the owner?"""
        return claim_matches(self.root, handle.key, self.host_id, handle.epoch)

    def release(
        self, handle: ClaimHandle, *, done: bool,
        requeue: bool = False,
    ) -> None:
        """Give up a claim.

        ``done=True`` (job settled: result published or failed
        deterministically) deletes the claim file — the shared store now
        answers the key.  ``done=False`` (drain) rewrites it ownerless at
        the same epoch so a peer takes it over with a fenced epoch bump;
        ``requeue=True`` additionally re-publishes the queue entry so an
        idle peer finds the work without waiting for a resubmission.
        """
        with self._lock:
            self._held.pop(handle.key, None)
            self.releases += 1
        path = self.claim_path(handle.key)
        current = _read_json(path)
        if (
            current is None
            or current.get("owner") != self.host_id
            or current.get("epoch") != handle.epoch
        ):
            with self._lock:
                self.fenced += 1
            return  # no longer ours to release
        if done:
            try:
                path.unlink()
            except OSError:
                pass
            return
        doc = dict(current)
        doc["owner"] = None
        doc["released_at"] = time.time()  # diagnostic only
        with atomic_write(path) as fh:
            fh.write(_dump(doc).decode("utf-8"))
        if requeue:
            self.enqueue(handle.key, handle.scenario, job_id=None)

    def note_fenced(self, n: int = 1) -> None:
        """Record fence losses observed elsewhere (worker children report
        theirs through the attempt pipe)."""
        with self._lock:
            self.fenced += n

    # ------------------------------------------------------------------
    # queue shards + work stealing
    # ------------------------------------------------------------------

    def enqueue(
        self, key: str, scenario: dict[str, Any], *, job_id: str | None
    ) -> None:
        """Publish a queued job into this host's shard (steal target)."""
        entry = {
            "key": key,
            "scenario": scenario,
            "job_id": job_id,
            "host": self.host_id,
            "submitted_at": time.time(),  # diagnostic only
        }
        with atomic_write(self.queue_entry_path(self.host_id, key)) as fh:
            json.dump(entry, fh, sort_keys=True)

    def remove_queue_entry(self, key: str, host: str | None = None) -> None:
        try:
            self.queue_entry_path(host or self.host_id, key).unlink()
        except OSError:
            pass

    def queue_depths(self) -> dict[str, int]:
        depths: dict[str, int] = {}
        for shard in sorted(self.queue_root.iterdir()):
            if shard.is_dir():
                depths[shard.name] = sum(1 for _ in shard.glob("*.json"))
        return depths

    def steal(
        self, own_depth: int, *, limit: int = 1
    ) -> list[tuple[ClaimHandle, dict[str, Any]]]:
        """Claim up to ``limit`` queued jobs from loaded or dead peers.

        Bounded and lease-mediated: every steal goes through
        :meth:`try_claim`, so a raced steal (the owner dequeued it, or
        another thief got there first) is a no-op, never a double run.
        """
        stolen: list[tuple[ClaimHandle, dict[str, Any]]] = []
        depths = self.queue_depths()
        victims = sorted(
            (h for h in depths if h != self.host_id),
            key=lambda h: -depths[h],
        )
        for victim in victims:
            if len(stolen) >= limit:
                break
            state = self.host_state(victim)
            if state not in ("dead", "gone") and (
                depths[victim] <= own_depth + self.steal_margin
            ):
                continue
            for path in sorted(
                (self.queue_root / victim).glob("*.json")
            ):
                if len(stolen) >= limit:
                    break
                entry = _read_json(path)
                if entry is None:
                    continue
                key = str(entry.get("key") or path.stem)
                failpoints.fire(
                    "fleet.steal.race", key=key, host=self.host_id,
                    victim=victim,
                )
                handle = self.try_claim(
                    key, entry.get("scenario") or {}, origin="steal"
                )
                if handle is None:
                    with self._lock:
                        self.steal_races += 1
                    continue
                try:
                    path.unlink()
                except OSError:
                    pass
                with self._lock:
                    self.steals += 1
                stolen.append((handle, entry))
        return stolen

    # ------------------------------------------------------------------
    # reclamation + fleet-wide poison
    # ------------------------------------------------------------------

    def reclaim_dead(
        self, *, limit: int = 4
    ) -> list[tuple[ClaimHandle, dict[str, Any]]]:
        """Take over up to ``limit`` claims whose owner's lease is dead.

        Each takeover bumps the fencing epoch and increments the claim's
        ``host_deaths``; a claim that has now killed ``poison_after``
        hosts is quarantined fleet-wide instead of being resumed again.
        The caller resumes the returned jobs from the shared spool —
        byte-identically, because the snapshot layer identity-checks
        ``config_sha256`` before restoring.
        """
        reclaimed: list[tuple[ClaimHandle, dict[str, Any]]] = []
        for path in sorted(self.claims_dir.glob("*.json")):
            if len(reclaimed) >= limit:
                break
            claim = _read_json(path)
            if claim is None:
                continue
            owner = claim.get("owner")
            if not owner:
                continue  # released; flows back through queue entries
            if owner == self.host_id and self.held(str(claim.get("key"))):
                continue
            if owner != self.host_id and self.host_state(str(owner)) not in (
                "dead", "gone",
            ):
                continue
            key = str(claim.get("key") or path.stem)
            if int(claim.get("host_deaths", 0)) + 1 >= self.poison_after:
                self._poison_from_claim(key, claim)
                continue
            handle = self._take_over(key, claim, origin="reclaim")
            if handle is None:
                continue
            with self._lock:
                self.reclaims += 1
            # the dead owner's queue entry (if any) is now ours
            self.remove_queue_entry(key, host=str(owner))
            reclaimed.append((handle, claim))
        return reclaimed

    def _poison_from_claim(self, key: str, claim: dict[str, Any]) -> None:
        bundle = {
            "kind": "fleet-poison-quarantine",
            "job_key": key,
            "scenario": claim.get("scenario"),
            "host_deaths": int(claim.get("host_deaths", 0)) + 1,
            "last_owner": claim.get("owner"),
            "epoch": claim.get("epoch"),
            "quarantined_by": self.host_id,
            "quarantined_at": time.time(),
        }
        if atomic_publish(self.poison_path(key), _dump(bundle, indent=2)):
            with self._lock:
                self.poisoned_fleet += 1
        try:
            self.claim_path(key).unlink()
        except OSError:
            pass
        self.remove_queue_entry(key, host=str(claim.get("owner") or ""))

    def poison(self, key: str, bundle: dict[str, Any]) -> Path:
        """Quarantine ``key`` fleet-wide (first writer wins); used by the
        queue when local worker-death poisoning trips, so no *other* host
        re-runs a job this host already diagnosed as poison."""
        path = self.poison_path(key)
        if atomic_publish(path, _dump(bundle, indent=2)):
            with self._lock:
                self.poisoned_fleet += 1
        return path

    def poisoned(self, key: str) -> Path | None:
        path = self.poison_path(key)
        return path if path.is_file() else None

    # ------------------------------------------------------------------
    # gauges
    # ------------------------------------------------------------------

    def status(self) -> dict[str, Any]:
        states = dict(self._last_scan) or self.scan()
        with self._lock:
            return {
                "host_id": self.host_id,
                "lease_timeout": self.lease_timeout,
                "hosts": {
                    "alive": sum(1 for s in states.values() if s == "alive"),
                    "suspect": sum(
                        1 for s in states.values() if s == "suspect"
                    ),
                    "dead": sum(1 for s in states.values() if s == "dead"),
                },
                "claims_held": len(self._held),
                "claims_won": self.claims_won,
                "claim_conflicts": self.claim_conflicts,
                "steals": self.steals,
                "steal_races": self.steal_races,
                "reclaims": self.reclaims,
                "releases": self.releases,
                "fenced_writes": self.fenced,
                "poisoned_fleet": self.poisoned_fleet,
            }


def _dump(doc: dict[str, Any], indent: int | None = None) -> bytes:
    return json.dumps(doc, sort_keys=True, indent=indent).encode("utf-8")


# ---------------------------------------------------------------------------
# offline inspection (repro fleet status)
# ---------------------------------------------------------------------------


def fleet_status(fleet_dir: str | Path) -> dict[str, Any]:
    """Inspect a fleet directory from the filesystem alone — no server
    needed, so a dead fleet is diagnosable post-mortem.

    Lease ages here come from the *diagnostic* wall-clock stamps (an
    offline reader has no heartbeat history to observe); the live
    protocol never uses them.
    """
    root = Path(fleet_dir)
    if not root.is_dir():
        raise FileNotFoundError(f"no fleet directory at {root}")
    now = time.time()
    hosts = []
    for path in sorted((root / "hosts").glob("*.json")):
        lease = _read_json(path)
        if lease is None:
            continue
        hosts.append({
            "host_id": lease.get("host_id", path.stem),
            "pid": lease.get("pid"),
            "addr": lease.get("addr", ""),
            "seq": lease.get("seq", 0),
            "lease_timeout": lease.get("lease_timeout"),
            "stamped_age_s": round(
                max(0.0, now - float(lease.get("stamped_at", now))), 1
            ),
        })
    claims = []
    for path in sorted((root / "claims").glob("*.json")):
        claim = _read_json(path)
        if claim is None:
            continue
        claims.append({
            "key": claim.get("key", path.stem),
            "owner": claim.get("owner"),
            "epoch": claim.get("epoch"),
            "host_deaths": claim.get("host_deaths", 0),
            "label": _spec_label(claim.get("scenario")),
        })
    queued: dict[str, int] = {}
    queue_root = root / "queue"
    if queue_root.is_dir():
        for shard in sorted(queue_root.iterdir()):
            if shard.is_dir():
                queued[shard.name] = sum(1 for _ in shard.glob("*.json"))
    poison = sorted(p.stem for p in (root / "poison").glob("*.json"))
    results = (
        sum(1 for _ in (root / "results").glob("*.rcache"))
        if (root / "results").is_dir() else 0
    )
    snapshots = (
        sum(1 for _ in (root / "spool").glob("*.snap"))
        if (root / "spool").is_dir() else 0
    )
    return {
        "fleet_dir": str(root),
        "hosts": hosts,
        "claims": claims,
        "queued": queued,
        "poison": poison,
        "results": results,
        "snapshots": snapshots,
    }


def _spec_label(scenario: Any) -> str:
    """The label of a claimed job, which names its service-form scenario
    (:func:`repro.service.queue.service_form`); ``?`` for a claim that
    holds no scenario, such as one written by 3.x."""
    if not isinstance(scenario, dict):
        return "?"
    return str(scenario.get("name", "?"))
