"""Simulation-as-a-service: a stdlib-only asyncio job server.

The service fronts :class:`repro.api.Session` with an HTTP API designed
around failure: every job runs under a wall-clock budget with bounded
retries (exponential backoff + jitter), a saturated queue sheds load with
``503 Retry-After`` instead of piling up, long jobs are preempted at task
boundaries through the :mod:`repro.snapshot` machinery and requeued, and
identical requests are answered from a content-addressed result cache
keyed on ``config_sha256`` — never simulated twice.  Every response is a
typed envelope carrying the package version; no failure path leaks a
stack trace.

Layout:

* :mod:`repro.service.envelope` — the response envelope and error taxonomy.
* :mod:`repro.service.cache`    — CRC-validated content-addressed results.
* :mod:`repro.service.queue`    — bounded queue, retries, breaker, eviction,
  poison quarantine.
* :mod:`repro.service.workers`  — the crash-isolated worker pool: one
  subprocess per attempt, forked from a pre-imported template, heartbeat
  leases, memory rlimits.
* :mod:`repro.service.server`   — the asyncio HTTP front end.
* :mod:`repro.service.client`   — the retrying client behind ``repro submit``.

Failure *injection* for all of it is the deterministic failpoint registry
(:mod:`repro.failpoints`), exercised by ``pytest -m chaos`` and the CI
service smoke.

See DESIGN.md §11 for the failure-mode inventory and
``scripts/service_smoke.py`` for the kill-9/cache-hit chaos gate run in CI.
"""

from repro.service.cache import ResultCache, request_key
from repro.service.client import ServiceClient
from repro.service.envelope import ServiceError, error_envelope, ok_envelope
from repro.service.queue import JobQueue, RunSpec, SweepSpec
from repro.service.server import ServiceServer
from repro.service.workers import WorkerDied, WorkerPool

__all__ = [
    "JobQueue",
    "ResultCache",
    "RunSpec",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "SweepSpec",
    "WorkerDied",
    "WorkerPool",
    "error_envelope",
    "ok_envelope",
    "request_key",
]
