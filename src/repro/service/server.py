"""Stdlib-only asyncio HTTP server fronting the job queue.

Deliberately minimal HTTP/1.1: one request per connection
(``Connection: close``), JSON bodies, and every response — success or
failure — a versioned envelope (:mod:`repro.service.envelope`).  A client
never sees a stack trace; the worst case is a typed ``internal`` error.

Routes (all under ``/v1``):

========================  ======================================================
``GET  /v1/health``       queue + cache statistics, breaker state, fleet gauges
``POST /v1/run``          submit a run scenario (``{"scenario": ...}``)
``POST /v1/sweep``        submit a sweep scenario (workloads x policies)
``GET  /v1/jobs/<id>``    job record (state, attempts, evictions, cache hits)
``GET  /v1/jobs/<id>/result``  the result dict once the job is done
``GET  /v1/jobs/<id>/events``  NDJSON progress stream until the job settles
========================  ======================================================

The events stream opens with a ``hello`` envelope line (so a client can
check the server version before trusting anything else), then one JSON
object per line: sampled observer events from the running simulation plus
job lifecycle markers (``queued``/``attempt``/``cell_done``/``evicted``/
``retry``/``done``/``failed``).

Shutdown: SIGTERM/SIGINT flips the queue to draining (new submissions get
a typed ``draining`` 503), preempts every in-flight job to a spool
snapshot at its next task boundary, then the process exits with
:data:`EXIT_DRAINED` (75, ``EX_TEMPFAIL`` — same convention as the CLI's
preempted runs) so supervisors know to reschedule, not to bury.
"""

from __future__ import annotations

import asyncio
import json
import signal
from pathlib import Path
from typing import Any, Callable

from repro.service.cache import ResultCache
from repro.service.envelope import ServiceError, error_envelope, ok_envelope
from repro.service.fleet import DEFAULT_HOST_LEASE_TIMEOUT, FleetNode
from repro.service.queue import JobQueue, scenario_from_body

__all__ = ["ServiceServer", "EXIT_DRAINED", "MAX_BODY"]

#: exit status after a graceful drain (EX_TEMPFAIL — "try again later").
EXIT_DRAINED = 75

#: request body cap; a simulation request is a few hundred bytes.
MAX_BODY = 1 << 20

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


class ServiceServer:
    """Owns the listening socket, the :class:`JobQueue`, and the cache."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        cache_dir: str | Path,
        spool_dir: str | Path,
        workers: int = 2,
        max_pending: int = 32,
        timeout: float | None = None,
        retries: int = 1,
        backoff: float = 0.25,
        evict_after: float | None = None,
        checkpoint_every: int = 0,
        drain_grace: float = 10.0,
        worker_mem_mb: int | None = None,
        lease_timeout: float = 30.0,
        poison_after: int = 3,
        fleet_dir: str | Path | None = None,
        host_id: str | None = None,
        host_lease_timeout: float = DEFAULT_HOST_LEASE_TIMEOUT,
    ) -> None:
        self.host = host
        self.port = port
        self.drain_grace = drain_grace
        self.fleet: FleetNode | None = None
        if fleet_dir is not None:
            self.fleet = FleetNode(
                fleet_dir,
                host_id=host_id,
                lease_timeout=host_lease_timeout,
                poison_after=poison_after,
            )
        self.cache = ResultCache(
            cache_dir,
            fleet_dir=(
                None if self.fleet is None else self.fleet.results_dir
            ),
        )
        self.queue = JobQueue(
            workers=workers,
            max_pending=max_pending,
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            evict_after=evict_after,
            checkpoint_every=checkpoint_every,
            spool_dir=spool_dir,
            cache=self.cache,
            worker_mem_mb=worker_mem_mb,
            lease_timeout=lease_timeout,
            poison_after=poison_after,
            fleet=self.fleet,
        )
        self._server: asyncio.base_events.Server | None = None
        self._drained = asyncio.Event()
        self.exit_code = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start the queue workers."""
        await self.queue.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.fleet is not None:
            # The bound port is only known now: refresh the host lease so
            # peers (and ``repro fleet status``) see a dialable address.
            self.fleet.addr = f"{self.host}:{self.port}"
            self.fleet.register()

    async def serve_forever(self, *, install_signals: bool = True) -> int:
        """Run until drained; returns the intended process exit code."""
        if self._server is None:
            await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(
                    sig, lambda s=sig: asyncio.ensure_future(self.shutdown(s))
                )
        await self._drained.wait()
        return self.exit_code

    async def shutdown(self, sig: int | None = None) -> None:
        """Drain: checkpoint in-flight jobs, close the socket, wake the exit."""
        if self.queue.draining:
            return
        stopped = await self.queue.drain(grace=self.drain_grace)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.exit_code = EXIT_DRAINED if (sig is not None or stopped) else 0
        self._drained.set()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, target, body = await self._read_request(reader)
            except ServiceError as err:
                await self._send_json(writer, err.status, error_envelope(err))
                return
            try:
                await self._route(method, target, body, writer)
            except ServiceError as err:
                await self._send_json(writer, err.status, error_envelope(err))
            except Exception as exc:  # noqa: BLE001 - typed envelope, no trace
                err = ServiceError(
                    "internal", f"{type(exc).__name__}: {exc}"
                )
                await self._send_json(writer, err.status, error_envelope(err))
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass  # client went away mid-exchange; nothing to tell it
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, Any] | None]:
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise ServiceError("invalid-request", "malformed request line")
        method, target = parts[0].upper(), parts[1]
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError as exc:
                    raise ServiceError(
                        "invalid-request", "bad Content-Length header"
                    ) from exc
        if length > MAX_BODY:
            raise ServiceError(
                "invalid-request",
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY}-byte limit",
            )
        body: dict[str, Any] | None = None
        if length:
            raw = await reader.readexactly(length)
            try:
                body = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ServiceError(
                    "invalid-request", f"request body is not valid JSON: {exc}"
                ) from exc
        return method, target, body

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any],
        *,
        headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        extra = dict(headers or {})
        err = payload.get("error")
        if isinstance(err, dict) and err.get("retry_after") is not None:
            extra["Retry-After"] = str(err["retry_after"])
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        head += [f"{k}: {v}" for k, v in extra.items()]
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await writer.drain()

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------

    async def _route(
        self,
        method: str,
        target: str,
        body: dict[str, Any] | None,
        writer: asyncio.StreamWriter,
    ) -> None:
        path = target.split("?", 1)[0].rstrip("/")
        routes: dict[tuple[str, str], Callable] = {
            ("GET", "/v1/health"): self._health,
            ("POST", "/v1/run"): self._submit,
            ("POST", "/v1/sweep"): self._submit,
        }
        handler = routes.get((method, path))
        if handler is not None:
            await handler(method, path, body, writer)
            return
        if path.startswith("/v1/jobs/"):
            if method != "GET":
                raise ServiceError(
                    "method-not-allowed", f"{method} not allowed on {path}"
                )
            await self._jobs(path, writer)
            return
        known_paths = {"/v1/health", "/v1/run", "/v1/sweep"}
        if path in known_paths:
            raise ServiceError(
                "method-not-allowed", f"{method} not allowed on {path}"
            )
        raise ServiceError("not-found", f"no route for {path!r}")

    async def _health(self, method, path, body, writer) -> None:
        await self._send_json(
            writer,
            200,
            ok_envelope({
                "status": "draining" if self.queue.draining else "ok",
                "queue": self.queue.stats(),
                "cache": self.cache.stats(),
                **(
                    {"fleet": self.fleet.status()}
                    if self.fleet is not None else {}
                ),
            }),
        )

    async def _submit(self, method, path, body, writer) -> None:
        """Admit a ``{"scenario": {...}}`` or ``{"scenario": "<name>"}``
        body; a body without ``scenario`` is refused."""
        if body is None:
            raise ServiceError("invalid-request", "missing JSON request body")
        if not isinstance(body, dict) or "scenario" not in body:
            raise ServiceError(
                "invalid-request",
                f'{path} takes a scenario body: {{"scenario": {{...}}}} or '
                '{"scenario": "<library-name>"} (flat bodies were removed '
                "in 3.0)",
            )
        kind = "sweep" if path.endswith("/sweep") else "run"
        try:
            scenario = scenario_from_body(body["scenario"], kind)
        except ValueError as exc:
            raise ServiceError("invalid-request", str(exc)) from exc
        job = self.queue.submit(scenario)  # raises saturated/draining
        await self._send_json(writer, 200, ok_envelope({"job": job.to_dict()}))

    async def _jobs(self, path: str, writer: asyncio.StreamWriter) -> None:
        parts = path.split("/")  # '', 'v1', 'jobs', <id>[, sub]
        job_id = parts[3] if len(parts) > 3 else ""
        sub = parts[4] if len(parts) > 4 else ""
        job = self.queue.get(job_id)  # raises not-found
        if sub == "":
            await self._send_json(
                writer, 200, ok_envelope({"job": job.to_dict()})
            )
        elif sub == "result":
            if job.state == "failed":
                raise ServiceError.from_dict(job.error or {})
            if job.state != "done" or job.result is None:
                raise ServiceError(
                    "not-found",
                    f"job {job_id} has no result yet (state {job.state!r})",
                )
            await self._send_json(
                writer, 200,
                ok_envelope({"job": job.to_dict(), "result": job.result}),
            )
        elif sub == "events":
            await self._stream_events(job, writer)
        else:
            raise ServiceError("not-found", f"no route for {path!r}")

    async def _stream_events(self, job, writer: asyncio.StreamWriter) -> None:
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))

        def line(obj: dict[str, Any]) -> bytes:
            return (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")

        writer.write(line(ok_envelope({"kind": "hello", "job": job.id})))
        await writer.drain()
        cursor = 0
        while True:
            items, cursor = job.events.since(cursor)
            if items:
                for item in items:
                    writer.write(line(item))
                await writer.drain()
            elif job.events.closed:
                break
            else:
                await job.events.wait(cursor)
