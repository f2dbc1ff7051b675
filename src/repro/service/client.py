"""A small retrying HTTP client for the simulation service.

Used by the ``repro submit`` CLI and the smoke/chaos tests.  Connection
failures — including connection-refused from a host that is restarting
or dead — and retryable envelopes (``saturated``/``draining``/
``timeout``) are retried under a bounded attempt budget with
**decorrelated jitter** (each delay is drawn from
``[backoff, 3 * previous_delay]``, capped), which spreads a thundering
herd of retrying clients better than correlated exponential backoff;
the server's ``Retry-After`` hint is honoured when one is given.  A
non-retryable error envelope is raised as the corresponding typed
:class:`~repro.service.envelope.ServiceError` — the caller never parses
HTTP status codes.

Fleet failover: extra ``failover=[(host, port), ...]`` targets are
rotated to whenever the current target fails at the connection level, so
a killed fleet host degrades into a retry against its peers instead of a
hard error.  The shared result store makes the failed-over *submission*
cheap (a duplicate submit is a store hit), but job *records* live on the
host that accepted them — a ``job_id`` minted by a dead host is gone
with it; resubmit and let the store answer.
"""

from __future__ import annotations

import http.client
import json
import random
import sys
import time
from typing import Any, Iterable, Iterator

from repro.service.envelope import ServiceError

__all__ = ["ServiceClient"]

#: upper bound for one retry sleep (seconds).
MAX_RETRY_DELAY = 30.0

#: decodes response bodies with every object key interned, so a caller
#: that keeps many results of one shape holds one copy of each key, not
#: one per result (a kmeans/snuca result envelope at 1/1024 decodes to
#: ~4.1 KB instead of ~6.5 KB).
_DECODER = json.JSONDecoder(
    object_pairs_hook=lambda pairs: {sys.intern(k): v for k, v in pairs}
)


class ServiceClient:
    """Talk to a :class:`~repro.service.server.ServiceServer` (or several)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8642,
        *,
        retries: int = 4,
        backoff: float = 0.2,
        timeout: float = 30.0,
        jitter_seed: int | None = None,
        failover: Iterable[tuple[str, int]] = (),
    ) -> None:
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout
        self._rng = random.Random(jitter_seed)
        self._targets: list[tuple[str, int]] = [(host, port), *failover]
        self._target_idx = 0

    @property
    def host(self) -> str:
        return self._targets[self._target_idx][0]

    @property
    def port(self) -> int:
        return self._targets[self._target_idx][1]

    def _rotate_target(self) -> None:
        """Point at the next failover target (no-op with a single one)."""
        self._target_idx = (self._target_idx + 1) % len(self._targets)

    def _next_delay(self, prev: float | None) -> float:
        """Decorrelated jitter: uniform over ``[backoff, 3 * prev]``.

        Successive delays random-walk upward (bounded by
        :data:`MAX_RETRY_DELAY`) while staying uncorrelated between
        clients — N clients refused by the same restarting host do not
        come back as one synchronized wave.
        """
        if self.backoff <= 0:
            return 0.0
        high = max(self.backoff, 3.0 * (prev if prev else self.backoff))
        return min(MAX_RETRY_DELAY, self._rng.uniform(self.backoff, high))

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------

    def _once(
        self, method: str, path: str, body: dict[str, Any] | None
    ) -> dict[str, Any]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = (
                json.dumps(body).encode("utf-8") if body is not None else None
            )
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
        finally:
            conn.close()
        try:
            envelope = _DECODER.decode(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ServiceError(
                "internal",
                f"server returned non-JSON response (status {resp.status})",
            ) from exc
        if envelope.get("ok"):
            return envelope
        raise ServiceError.from_dict(envelope.get("error") or {})

    def request(
        self, method: str, path: str, body: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        """One API call with retries; returns the whole ``ok`` envelope.

        Connection-level failures (refused, reset, timeout) are
        retryable, not terminal: the target rotates to the next failover
        host (if any) and the attempt repeats after a decorrelated-jitter
        delay, up to the bounded attempt budget.
        """
        attempt = 0
        prev_delay: float | None = None
        while True:
            attempt += 1
            try:
                return self._once(method, path, body)
            except ServiceError as err:
                if not err.retryable or attempt > self.retries:
                    raise
                delay = err.retry_after
            except (ConnectionError, OSError, http.client.HTTPException) as exc:
                if attempt > self.retries:
                    raise ServiceError(
                        "internal",
                        f"cannot reach service at {self.host}:{self.port} "
                        f"after {attempt} attempts: {exc}",
                    ) from exc
                self._rotate_target()
                delay = None
            if delay is None:
                delay = self._next_delay(prev_delay)
            prev_delay = delay
            time.sleep(delay)

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------

    def health(self) -> dict[str, Any]:
        return self.request("GET", "/v1/health")["data"]

    def submit_scenario(self, scenario) -> dict[str, Any]:
        """Submit a :class:`~repro.scenario.Scenario` (by value or
        curated-library name); returns the job record.

        The one submission path: the body is ``{"scenario": ...}`` and
        the endpoint follows the scenario's kind.  Multiprog
        scenarios are rejected by the server (run those locally via
        ``repro.run_scenario``).
        """
        if isinstance(scenario, str):
            body: Any = scenario
            from repro.scenario import load_scenario

            kind = load_scenario(scenario).kind
        else:
            body = scenario.to_dict()
            kind = scenario.kind
        endpoint = "/v1/sweep" if kind == "sweep" else "/v1/run"
        return self.request(
            "POST", endpoint, {"scenario": body}
        )["data"]["job"]

    def job(self, job_id: str) -> dict[str, Any]:
        return self.request("GET", f"/v1/jobs/{job_id}")["data"]["job"]

    def result(self, job_id: str) -> dict[str, Any]:
        """The finished job's envelope data: ``{"job": ..., "result": ...}``."""
        return self.request("GET", f"/v1/jobs/{job_id}/result")["data"]

    def wait(
        self, job_id: str, *, timeout: float = 300.0, poll: float = 0.1
    ) -> dict[str, Any]:
        """Wait until the job settles; returns the final job record.

        Follows the job's event stream, which the server ends as the job
        settles, then reads the record once.  Only if the stream cannot
        be opened or drops does it poll the record every ``poll`` seconds.
        A ``failed`` job raises its stored typed error; ``preempted``
        raises a retryable ``draining`` error (resubmit to a live server —
        the cache and spool make the retry cheap).
        """
        deadline = time.monotonic() + timeout
        try:
            for _ in self._events(job_id, min(self.timeout, timeout)):
                if time.monotonic() >= deadline:
                    break
        except (ServiceError, OSError, http.client.HTTPException, ValueError):
            pass  # no stream, or it broke off mid-line: poll the record
        while True:
            job = self.job(job_id)
            state = job["state"]
            if state == "done":
                return job
            if state == "failed":
                raise ServiceError.from_dict(job.get("error") or {})
            if state == "preempted":
                raise ServiceError(
                    "draining",
                    f"job {job_id} was preempted by server shutdown; "
                    "resubmit to resume from its checkpoint",
                )
            if time.monotonic() >= deadline:
                raise ServiceError(
                    "timeout",
                    f"job {job_id} still {state!r} after {timeout}s of waiting",
                )
            time.sleep(poll)

    def iter_events(self, job_id: str) -> Iterator[dict[str, Any]]:
        """Yield the job's NDJSON progress events (hello envelope first).

        *Establishing* the stream retries connection failures under the
        same policy as :meth:`request`; once streaming, a dropped
        connection surfaces to the caller (events are progress telemetry,
        and replaying them from another host would duplicate history).
        """
        return self._events(job_id, self.timeout)

    def _events(
        self, job_id: str, timeout: float
    ) -> Iterator[dict[str, Any]]:
        """:meth:`iter_events` with ``timeout`` as the socket timeout."""
        attempt = 0
        prev_delay: float | None = None
        while True:
            attempt += 1
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=timeout
            )
            try:
                conn.request("GET", f"/v1/jobs/{job_id}/events")
                resp = conn.getresponse()
            except (ConnectionError, OSError, http.client.HTTPException) as exc:
                conn.close()
                if attempt > self.retries:
                    raise ServiceError(
                        "internal",
                        f"cannot reach service at {self.host}:{self.port} "
                        f"after {attempt} attempts: {exc}",
                    ) from exc
                self._rotate_target()
                delay = self._next_delay(prev_delay)
                prev_delay = delay
                time.sleep(delay)
                continue
            break
        try:
            if resp.status != 200:
                raw = resp.read()
                try:
                    envelope = json.loads(raw)
                except json.JSONDecodeError:
                    envelope = {}
                raise ServiceError.from_dict(envelope.get("error") or {})
            for raw_line in resp:
                raw_line = raw_line.strip()
                if raw_line:
                    yield json.loads(raw_line)
        finally:
            conn.close()
