"""HTTP server: envelopes, routes, NDJSON streaming, drain behaviour.

The server runs on a background-thread event loop; tests talk to it over
real sockets through :class:`ServiceClient` (or raw ``http.client`` when
the point is a malformed request the client would never send).
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading

import pytest

import repro
from repro.scenario import MachineSpec, Scenario
from repro.service.client import ServiceClient
from repro.service.envelope import ServiceError
from repro.service.server import ServiceServer

SCALE = 2048


def cell(workload, policy):
    """The run scenario of one (workload, policy) cell at the test scale."""
    return Scenario(f"{workload}-{policy}", workload=workload, policy=policy,
                    machine=MachineSpec(scale=SCALE))


class RunningServer:
    """A ServiceServer on its own event-loop thread."""

    def __init__(self, tmp_path, **kw):
        kw.setdefault("cache_dir", tmp_path / "cache")
        kw.setdefault("spool_dir", tmp_path / "spool")
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        self.server = ServiceServer(port=0, **kw)
        self.call(self.server.start())

    def call(self, coro, timeout=60.0):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout)

    @property
    def port(self):
        return self.server.port

    def stop(self):
        try:
            self.call(self.server.shutdown(), timeout=60.0)
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(5.0)

    def raw(self, method, path, body=None, headers=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request(method, path, body=body, headers=headers or {})
            resp = conn.getresponse()
            return resp.status, dict(resp.getheaders()), resp.read()
        finally:
            conn.close()


@pytest.fixture
def served(tmp_path):
    rs = RunningServer(tmp_path)
    try:
        yield rs
    finally:
        rs.stop()


class TestEnvelopes:
    def test_health_carries_package_version(self, served):
        status, _, raw = served.raw("GET", "/v1/health")
        assert status == 200
        envelope = json.loads(raw)
        assert envelope["ok"] is True
        assert envelope["version"] == repro.__version__
        assert envelope["data"]["status"] == "ok"
        assert envelope["data"]["queue"]["breaker"]["state"] == "closed"

    def test_unknown_route_is_typed_404(self, served):
        status, _, raw = served.raw("GET", "/v1/nope")
        envelope = json.loads(raw)
        assert status == 404
        assert envelope["ok"] is False
        assert envelope["version"] == repro.__version__
        assert envelope["error"]["type"] == "not-found"
        assert "Traceback" not in raw.decode()

    def test_wrong_method_is_405(self, served):
        status, _, raw = served.raw("DELETE", "/v1/run")
        assert status == 405
        assert json.loads(raw)["error"]["type"] == "method-not-allowed"

    def test_garbage_body_is_typed_400(self, served):
        status, _, raw = served.raw(
            "POST", "/v1/run", body=b"{not json",
            headers={"Content-Length": "9"},
        )
        envelope = json.loads(raw)
        assert status == 400
        assert envelope["error"]["type"] == "invalid-request"
        assert envelope["error"]["retryable"] is False

    def test_unknown_workload_is_typed_400_naming_it(self, served):
        client = ServiceClient(port=served.port, retries=0)
        with pytest.raises(ServiceError) as exc:
            client.submit_scenario(cell("fortnite", "tdnuca"))
        assert exc.value.type == "invalid-request"
        assert "fortnite" in exc.value.message

    def test_flat_body_is_typed_400_naming_the_scenario_form(self, served):
        body = json.dumps(
            {"workload": "md5", "policy": "tdnuca", "scale": SCALE}
        ).encode()
        status, _, raw = served.raw(
            "POST", "/v1/run", body=body,
            headers={"Content-Length": str(len(body))},
        )
        error = json.loads(raw)["error"]
        assert status == 400
        assert error["type"] == "invalid-request"
        assert error["retryable"] is False
        assert '{"scenario": {...}}' in error["message"]
        assert '{"scenario": "<library-name>"}' in error["message"]
        assert served.server.queue.stats()["submitted"] == 0

    def test_unknown_job_id_is_404(self, served):
        client = ServiceClient(port=served.port, retries=0)
        with pytest.raises(ServiceError) as exc:
            client.job("deadbeef")
        assert exc.value.type == "not-found"
        assert "deadbeef" in exc.value.message


class TestRunLifecycle:
    def test_submit_wait_result_then_cache_hit(self, served):
        client = ServiceClient(port=served.port)
        job = client.submit_scenario(cell("md5", "tdnuca"))
        assert job["state"] in ("queued", "running", "done")
        final = client.wait(job["id"])
        assert final["simulated"] == 1
        data = client.result(job["id"])
        assert data["result"]["workload"] == "md5"
        assert data["result"]["makespan_cycles"] > 0

        dup = client.submit_scenario(cell("md5", "tdnuca"))
        assert dup["state"] == "done"  # settled synchronously from cache
        assert dup["simulated"] == 0 and dup["cache_hits"] == 1
        dup_data = client.result(dup["id"])
        assert json.dumps(dup_data["result"], sort_keys=True) == json.dumps(
            data["result"], sort_keys=True
        )
        health = client.health()
        assert health["queue"]["simulations_run"] == 1
        assert health["cache"]["hits"] >= 1

    def test_result_before_done_is_404(self, served):
        client = ServiceClient(port=served.port, retries=0)
        job = client.submit_scenario(cell("knn", "snuca"))
        try:
            client.result(job["id"])
        except ServiceError as exc:
            assert exc.type == "not-found"
            assert job["id"] in exc.message
        # (If the run finished between submit and poll, the call simply
        # succeeds — both outcomes are correct; the type check above only
        # runs when it was still in flight.)
        client.wait(job["id"])

    def test_sweep_endpoint(self, served):
        client = ServiceClient(port=served.port)
        job = client.submit_scenario(Scenario(
            "md5-grid", workloads=("md5",), policies=("snuca", "tdnuca"),
            machine=MachineSpec(scale=SCALE),
        ))
        final = client.wait(job["id"])
        assert final["cells_total"] == 2
        data = client.result(job["id"])
        assert set(data["result"]["runs"]) == {"md5/snuca", "md5/tdnuca"}

    def test_events_stream_hello_then_lifecycle(self, served):
        client = ServiceClient(port=served.port)
        job = client.submit_scenario(cell("md5", "tdnuca"))
        events = list(client.iter_events(job["id"]))
        hello, rest = events[0], events[1:]
        assert hello["ok"] is True
        assert hello["version"] == repro.__version__
        assert hello["data"]["job"] == job["id"]
        kinds = [e.get("kind") for e in rest]
        assert kinds[0] == "queued"
        assert kinds[-1] == "done"
        assert "attempt" in kinds
        assert "cell_done" in kinds
        # Observer events from inside the simulation made it out too.
        assert any(k not in ("queued", "attempt", "cell_done", "done")
                   for k in kinds)


class TestDrain:
    def test_draining_server_sheds_submissions_with_503(self, tmp_path):
        rs = RunningServer(tmp_path)
        try:
            client = ServiceClient(port=rs.port, retries=0)
            rs.call(rs.server.shutdown())
            assert rs.server.queue.draining
            # After shutdown the queue sheds with a typed "draining" 503;
            # once the socket is fully closed the client reports a typed
            # connection failure instead.  Both are typed, never a trace.
            with pytest.raises(ServiceError) as exc:
                client.submit_scenario(cell("md5", "tdnuca"))
            assert exc.value.type in ("draining", "internal")
        finally:
            rs.stop()


class TestClientRetry:
    def test_client_retries_connection_errors_then_gives_up_typed(self):
        # Nothing listens on this port; the client must fail with a typed
        # error naming the endpoint, not a raw ConnectionRefusedError.
        client = ServiceClient(port=1, retries=1, backoff=0.0, timeout=2.0)
        with pytest.raises(ServiceError) as exc:
            client.health()
        assert exc.value.type == "internal"
        assert ":1" in exc.value.message

    def test_client_honours_retry_after_then_succeeds(self, served):
        # A breaker stand-in that sheds the first two submissions with a
        # Retry-After hint, then admits: the client must back off and win.
        queue = served.server.queue
        real = queue.breaker
        calls = {"n": 0}

        class SheddingTwice:
            def admit(self, depth):
                calls["n"] += 1
                if calls["n"] <= 2:
                    raise ServiceError(
                        "saturated", "shed by test breaker",
                        retry_after=0.05,
                    )

        queue.breaker = SheddingTwice()
        try:
            client = ServiceClient(port=served.port, retries=5, backoff=0.05)
            job = client.submit_scenario(cell("md5", "tdnuca"))
            assert calls["n"] == 3
            assert client.wait(job["id"])["state"] == "done"
        finally:
            queue.breaker = real


class TestClientConnectionRetry:
    """Connection-level failures are retryable, not terminal (a fleet
    host restarting must degrade into a delay, not an error)."""

    @staticmethod
    def _dead_port():
        import socket

        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            return s.getsockname()[1]  # closed again: refuses connections

    def test_connection_refused_retries_until_budget(self):
        client = ServiceClient(
            "127.0.0.1", self._dead_port(), retries=2, backoff=0.0
        )
        with pytest.raises(ServiceError) as err:
            client.health()
        assert err.value.type == "internal"
        assert "3 attempts" in str(err.value)

    def test_refused_primary_fails_over_to_a_live_peer(self, served):
        client = ServiceClient(
            "127.0.0.1", self._dead_port(), retries=3, backoff=0.0,
            failover=[("127.0.0.1", served.port)],
        )
        assert client.health()["status"] == "ok"
        assert client.port == served.port  # rotated and stayed

    def test_decorrelated_jitter_is_bounded_and_growing(self):
        client = ServiceClient(jitter_seed=7, retries=1, backoff=0.2)
        delay = None
        seen = []
        for _ in range(50):
            delay = client._next_delay(delay)
            seen.append(delay)
            assert 0.2 <= delay <= 30.0
        # the random walk actually explores upwards of the floor
        assert max(seen) > 0.2

    def test_zero_backoff_means_zero_delay(self):
        client = ServiceClient(backoff=0.0)
        assert client._next_delay(None) == 0.0
