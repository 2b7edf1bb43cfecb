"""The ``graphbench serve`` HTTP service end to end.

Acceptance contract (ISSUE 10):

* a cached ``POST /v1/predict`` answer is **byte-identical** to what a
  direct ``Runner.run(spec)`` serializes to — the server adds an
  envelope, never a different answer;
* N concurrent identical requests trigger **exactly one** sweep — the
  coalescing counter says so and ``/metrics`` exposes it;
* ``/healthz`` and ``/metrics`` are live, and the exposition passes
  the strict Prometheus grammar validator from ``tests/test_obs``;
* overload answers ``429 + Retry-After``; deadline expiry answers
  ``504`` while the computation still warms the cache for the retry.

Each test runs a real server on a fresh event loop bound to an
ephemeral port and talks to it over actual sockets — no handler
short-circuiting.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.api import PredictRequest, PredictResponse, canonical_json
from repro.core.runner import Runner
from repro.serve import GraphbenchServer
from tests.test_obs import _validate_prometheus

CELL = {"platform": "neo4j", "algorithm": "bfs", "dataset": "amazon"}


async def _request(
    port: int, method: str, path: str, body: dict | bytes | None = None
) -> tuple[int, dict[str, str], bytes]:
    """One HTTP exchange against the server (connections are one-shot,
    so read-to-EOF is the framing)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    if body is None:
        data = b""
    elif isinstance(body, bytes):
        data = body
    else:
        data = json.dumps(body).encode()
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: test\r\nContent-Length: {len(data)}\r\n\r\n"
        ).encode()
        + data
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, payload = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, payload


def _with_server(scenario, **server_kw):
    """Run ``await scenario(server)`` against a started server on a
    fresh loop; always tears the server down."""

    async def main():
        server = GraphbenchServer(**server_kw)
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.aclose()

    return asyncio.run(main())


class TestPredictByteIdentity:
    def test_served_answer_is_byte_identical_to_runner(self):
        async def scenario(server):
            first = await _request(server.port, "POST", "/v1/predict", CELL)
            second = await _request(server.port, "POST", "/v1/predict", CELL)
            return first, second

        (s1, _, b1), (s2, _, b2) = _with_server(scenario)
        assert s1 == 200 and s2 == 200
        cold, warm = json.loads(b1), json.loads(b2)
        assert cold["api_version"] == 1
        assert cold["cached"] is False
        assert warm["cached"] is True
        # the answer itself never changes between cold and warm
        assert cold["result"] == warm["result"]

        # byte-identity with the library path: same runner defaults,
        # same spec, same canonical encoding
        request = PredictRequest(**CELL)
        direct = PredictResponse.from_record(
            Runner().run(request.to_run_spec())
        )
        assert canonical_json(warm["result"]) == direct.to_json()
        # and the serialized envelope embeds those exact bytes
        assert direct.to_json().encode() in b2

    def test_job_endpoint_replays_the_answer(self):
        async def scenario(server):
            _, _, body = await _request(
                server.port, "POST", "/v1/predict", CELL
            )
            job_id = json.loads(body)["job_id"]
            return json.loads(body), await _request(
                server.port, "GET", f"/v1/jobs/{job_id}"
            )

        envelope, (status, _, job_body) = _with_server(scenario)
        assert status == 200
        job = json.loads(job_body)
        assert job["state"] == "done"
        assert job["kind"] == "predict"
        assert job["result"] == envelope["result"]


class TestCoalescing:
    N = 6

    def test_n_identical_requests_run_exactly_one_sweep(self):
        async def scenario(server):
            responses = await asyncio.gather(*[
                _request(server.port, "POST", "/v1/predict", CELL)
                for _ in range(self.N)
            ])
            _, _, metrics = await _request(server.port, "GET", "/metrics")
            return responses, metrics.decode(), server.batcher.stats()

        responses, metrics_text, stats = _with_server(
            scenario, window_seconds=0.2
        )
        assert all(status == 200 for status, _, _ in responses)
        payloads = [json.loads(body) for _, _, body in responses]
        results = {canonical_json(p["result"]) for p in payloads}
        assert len(results) == 1  # every client got the same answer
        # exactly one sweep: 1 compute + (N-1) coalesced
        assert stats["batches"] == 1
        assert stats["coalesced"] == self.N - 1
        assert stats["requests"] == self.N

        families = _validate_prometheus(metrics_text)
        coalesced = families["graphbench_serve_coalesced_total"]
        assert coalesced["type"] == "counter"
        assert coalesced["samples"][0][2] == self.N - 1
        requested = families["graphbench_serve_requests_total"]
        assert requested["samples"][0][2] == self.N

    def test_distinct_cells_share_one_micro_batch(self):
        other = dict(CELL, platform="giraph")

        async def scenario(server):
            await asyncio.gather(
                _request(server.port, "POST", "/v1/predict", CELL),
                _request(server.port, "POST", "/v1/predict", other),
            )
            return server.batcher.stats()

        stats = _with_server(scenario, window_seconds=0.2)
        assert stats["batches"] == 1
        assert stats["coalesced"] == 0
        assert stats["requests"] == 2


class TestBatchFailureIsolation:
    GOOD = {"platform": "giraph", "algorithm": "bfs", "dataset": "amazon"}
    BAD = dict(GOOD, platform="nope")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_cell_fails_only_its_own_waiters(self, workers):
        async def scenario(server):
            good, bad = await asyncio.gather(
                _request(server.port, "POST", "/v1/predict", self.GOOD),
                _request(server.port, "POST", "/v1/predict", self.BAD),
            )
            return good, bad, server.batcher.stats()

        (s_good, _, b_good), (s_bad, _, b_bad), stats = _with_server(
            scenario, workers=workers, window_seconds=0.2
        )
        assert stats["batches"] == 1  # both cells shared one micro-batch
        assert s_bad == 400
        assert "nope" in json.loads(b_bad)["error"]
        assert s_good == 200
        direct = PredictResponse.from_record(
            Runner().run(PredictRequest(**self.GOOD).to_run_spec())
        )
        assert canonical_json(json.loads(b_good)["result"]) == direct.to_json()
        # the failure stayed out of the answer cache
        assert stats["answer_cache"]["size"] == 1


class TestSweepJobs:
    def test_running_sweep_survives_the_job_table_bound(self):
        """The job table evicts only finished jobs: a sweep still
        running after 1024 later predicts must stay pollable."""
        release = threading.Event()
        sweep = {"platforms": ["giraph"], "algorithms": ["bfs"],
                 "datasets": ["amazon"]}

        async def scenario(server):
            # park the sweep thread so the job cannot finish early
            server._sweep_executor.submit(release.wait)
            try:
                _, _, body = await _request(
                    server.port, "POST", "/v1/sweep", sweep
                )
                job_id = json.loads(body)["job_id"]
                for _ in range(1024):
                    status, _, _ = await _request(
                        server.port, "POST", "/v1/predict", CELL
                    )
                    assert status == 200
                status, _, running = await _request(
                    server.port, "GET", f"/v1/jobs/{job_id}"
                )
            finally:
                release.set()
            for _ in range(200):
                _, _, job_body = await _request(
                    server.port, "GET", f"/v1/jobs/{job_id}"
                )
                if json.loads(job_body).get("state") == "done":
                    break
                await asyncio.sleep(0.05)
            return status, json.loads(running), json.loads(job_body)

        status, running, done = _with_server(scenario)
        assert status == 200
        assert running["state"] == "running"
        assert done["state"] == "done"

    def test_sweep_runs_as_background_job(self):
        payload = {
            "platforms": ["giraph", "neo4j"],
            "algorithms": ["bfs"],
            "datasets": ["amazon"],
            "name": "serve-sweep",
        }

        async def scenario(server):
            status, _, body = await _request(
                server.port, "POST", "/v1/sweep", payload
            )
            assert status == 202
            job_id = json.loads(body)["job_id"]
            for _ in range(200):
                _, _, job_body = await _request(
                    server.port, "GET", f"/v1/jobs/{job_id}"
                )
                job = json.loads(job_body)
                if job["state"] in ("done", "failed"):
                    return job
                await asyncio.sleep(0.05)
            raise AssertionError("sweep job never completed")

        job = _with_server(scenario)
        assert job["state"] == "done"
        assert job["kind"] == "sweep"
        assert job["result"]["name"] == "serve-sweep"
        assert len(job["result"]["cells"]) == 2
        assert {c["platform"] for c in job["result"]["cells"]} == {
            "giraph", "neo4j",
        }


class TestHealthAndMetrics:
    def test_healthz_reports_the_serving_stack(self):
        async def scenario(server):
            await _request(server.port, "POST", "/v1/predict", CELL)
            return await _request(server.port, "GET", "/healthz")

        status, headers, body = _with_server(scenario)
        assert status == 200
        assert headers["content-type"] == "application/json"
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["admission"]["max_pending"] == 64
        assert health["batching"]["requests"] == 1
        assert health["trace_cache"]["misses"] >= 1

    def test_metrics_pass_the_prometheus_grammar(self):
        async def scenario(server):
            await _request(server.port, "POST", "/v1/predict", CELL)
            return await _request(server.port, "GET", "/metrics")

        status, headers, body = _with_server(scenario)
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        families = _validate_prometheus(body.decode())
        for family in (
            "graphbench_serve_requests_total",
            "graphbench_serve_admitted_total",
            "graphbench_serve_batches_total",
            "graphbench_serve_request_latency_seconds",
            "graphbench_serve_answer_cache_hit_rate",
            "graphbench_serve_coalescing_ratio",
        ):
            assert family in families, f"missing {family}"


class TestProtocolErrors:
    def test_bad_json_is_400(self):
        async def scenario(server):
            return await _request(
                server.port, "POST", "/v1/predict", b"{nope"
            )

        status, _, body = _with_server(scenario)
        assert status == 400
        assert "not valid JSON" in json.loads(body)["error"]

    def test_uncoercible_field_type_is_400(self):
        async def scenario(server):
            return await _request(
                server.port, "POST", "/v1/predict",
                dict(CELL, scale="fast"),
            )

        status, _, body = _with_server(scenario)
        assert status == 400
        assert "bad PredictRequest field" in json.loads(body)["error"]

    def test_negative_content_length_is_400(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(
                b"POST /v1/predict HTTP/1.1\r\n"
                b"Host: test\r\nContent-Length: -5\r\n\r\n"
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            return raw

        raw = _with_server(scenario)
        assert int(raw.split()[1]) == 400

    def test_unexpected_batcher_failure_releases_the_slot(self):
        """An exception class _predict does not map to a status (e.g. a
        broken executor) must still return the admission slot; with
        max_pending=1 a leak would shed every later request as 429."""

        async def scenario(server):
            def boom(requests, workers):
                raise RuntimeError("executor blew up")

            server.service.predict_batch = boom
            failed = await _request(server.port, "POST", "/v1/predict", CELL)
            del server.service.predict_batch  # back to the bound method
            recovered = await _request(
                server.port, "POST", "/v1/predict", CELL
            )
            return failed, recovered, server.admission.pending

        (s1, _, b1), (s2, _, _), pending = _with_server(
            scenario, max_pending=1
        )
        assert s1 == 500
        assert "executor blew up" in json.loads(b1)["error"]
        assert pending == 0
        assert s2 == 200

    def test_unknown_platform_is_400(self):
        async def scenario(server):
            return await _request(
                server.port, "POST", "/v1/predict",
                dict(CELL, platform="nosuch"),
            )

        status, _, _ = _with_server(scenario)
        assert status == 400

    def test_method_and_route_errors(self):
        async def scenario(server):
            return (
                await _request(server.port, "GET", "/v1/predict"),
                await _request(server.port, "GET", "/nope"),
                await _request(server.port, "GET", "/v1/jobs/job-404"),
            )

        (method, _, _), (route, _, _), (job, _, _) = _with_server(scenario)
        assert method == 405
        assert route == 404
        assert job == 404

    def test_overload_is_429_with_retry_after(self):
        async def scenario(server):
            # fill the admission gate so the next request is shed
            while server.admission.try_admit():
                pass
            return await _request(server.port, "POST", "/v1/predict", CELL)

        status, headers, body = _with_server(scenario, max_pending=2)
        assert status == 429
        assert int(headers["retry-after"]) >= 1
        assert "capacity" in json.loads(body)["error"]

    def test_deadline_expiry_is_504_and_still_warms_the_cache(self):
        async def scenario(server):
            timed_out = await _request(
                server.port, "POST", "/v1/predict", CELL
            )
            # the shielded computation keeps running; a patient retry
            # gets the (eventually cached) answer
            server.admission.deadline_seconds = 30.0
            retried = await _request(server.port, "POST", "/v1/predict", CELL)
            return timed_out, retried, server.admission.timeouts_total

        (s1, _, b1), (s2, _, b2), timeouts = _with_server(
            scenario, deadline_seconds=0.01, window_seconds=0.3
        )
        assert s1 == 504
        assert "deadline" in json.loads(b1)["error"]
        assert timeouts == 1
        assert s2 == 200
        assert json.loads(b2)["result"]["status"] == "ok"


class TestServeCli:
    def test_serve_subcommand_binds_and_exits(self, capsys, tmp_path):
        from repro.cli import main

        snapshot = tmp_path / "health.json"
        rc = main([
            "serve", "--port", "0", "--duration", "1.0",
            "--json", str(snapshot),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "listening on http://127.0.0.1:" in out
        assert "POST /v1/predict" in out
        health = json.loads(snapshot.read_text())
        assert health["status"] == "ok"
