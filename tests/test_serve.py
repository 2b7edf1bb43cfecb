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
  ``504`` while the computation still warms the cache for the retry;
* a worker process that dies mid-batch costs that batch a ``503`` and
  nothing else; a miss computing in a worker never delays a warm hit.

Each test runs a real server on a fresh event loop bound to an
ephemeral port and talks to it over actual sockets — no handler
short-circuiting.  Tests that need the worker busy patch
``ApiService.predict_batch`` before the server forks it.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
import time

import pytest

from repro.api import (
    ApiService,
    PredictRequest,
    PredictResponse,
    canonical_json,
)
from repro.core.runner import Runner
from repro.serve import GraphbenchServer
from tests.test_obs import _validate_prometheus

CELL = {"platform": "neo4j", "algorithm": "bfs", "dataset": "amazon"}
#: the cell the ``held`` fixture keeps computing until the test says so
HOLD = {"platform": "giraph", "algorithm": "conn", "dataset": "amazon"}


def _key(cell: dict) -> tuple:
    return PredictRequest(**cell).cell_key()


def _direct(cell: dict) -> str:
    """The canonical answer ``Runner.run`` gives for ``cell``."""
    return PredictResponse.from_record(
        Runner().run(PredictRequest(**cell).to_run_spec())
    ).to_json()


def _patch_batches(monkeypatch, cell: dict, before_compute) -> None:
    """Run ``before_compute()`` in any batch holding ``cell``.  Patched
    on the class before the server forks its workers, so they see it."""
    key = _key(cell)
    compute = ApiService.predict_batch

    def predict_batch(self, requests, *args):
        if any(r.cell_key() == key for r in requests):
            before_compute()
        return compute(self, requests, *args)

    monkeypatch.setattr(ApiService, "predict_batch", predict_batch)


@pytest.fixture
def held(monkeypatch, tmp_path):
    """Keep the batch holding ``HOLD`` — and so its worker — busy until
    the test calls the returned ``release()``.  The signal is a file, so
    a worker killed while it waits leaves nothing locked behind."""
    flag = tmp_path / "release"

    def wait() -> None:
        deadline = time.monotonic() + 60
        while not flag.exists() and time.monotonic() < deadline:
            time.sleep(0.005)

    _patch_batches(monkeypatch, HOLD, wait)
    yield flag.touch
    flag.touch()


async def _until(condition, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.005)


async def _hold_worker(server) -> asyncio.Future:
    """Ask ``HOLD`` and return once its batch is on the worker; the
    returned future is that request's response."""
    response = asyncio.ensure_future(
        _request(server.port, "POST", "/v1/predict", HOLD)
    )
    await _until(lambda: server.batcher.batches_total == 1)
    return response


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

    def test_n_identical_requests_run_exactly_one_sweep(self, held):
        async def scenario(server):
            hold = await _hold_worker(server)
            pending = [
                asyncio.ensure_future(
                    _request(server.port, "POST", "/v1/predict", CELL)
                )
                for _ in range(self.N)
            ]
            await _until(
                lambda: server.batcher.coalesced_total == self.N - 1
            )
            held()
            responses = await asyncio.gather(*pending)
            assert (await hold)[0] == 200
            _, _, metrics = await _request(server.port, "GET", "/metrics")
            return responses, metrics.decode(), server.batcher.stats()

        responses, metrics_text, stats = _with_server(scenario)
        assert all(status == 200 for status, _, _ in responses)
        payloads = [json.loads(body) for _, _, body in responses]
        results = {canonical_json(p["result"]) for p in payloads}
        assert len(results) == 1  # every client got the same answer
        # exactly one sweep for the N requests (1 compute + N-1
        # coalesced), after the batch that held the worker
        assert stats["batches"] == 2
        assert stats["coalesced"] == self.N - 1
        assert stats["requests"] == self.N + 1

        families = _validate_prometheus(metrics_text)
        coalesced = families["graphbench_serve_coalesced_total"]
        assert coalesced["type"] == "counter"
        assert coalesced["samples"][0][2] == self.N - 1
        requested = families["graphbench_serve_requests_total"]
        assert requested["samples"][0][2] == self.N + 1

    def test_distinct_cells_share_one_micro_batch(self, held):
        other = dict(CELL, platform="giraph")

        async def scenario(server):
            hold = await _hold_worker(server)
            pending = asyncio.gather(
                _request(server.port, "POST", "/v1/predict", CELL),
                _request(server.port, "POST", "/v1/predict", other),
            )
            await _until(lambda: server.batcher.stats()["in_flight"] == 3)
            held()
            await pending
            await hold
            return server.batcher.stats()

        stats = _with_server(scenario)
        # the two cells that queued behind the held batch went as one
        assert stats["batches"] == 2
        assert stats["coalesced"] == 0
        assert stats["requests"] == 3


class TestBatchFailureIsolation:
    GOOD = {"platform": "giraph", "algorithm": "bfs", "dataset": "amazon"}
    BAD = dict(GOOD, platform="nope")
    #: a second dataset: one worker batches it with the failing cell,
    #: two workers compute it on the worker HOLD does not occupy
    OTHER = {"platform": "neo4j", "algorithm": "bfs", "dataset": "citation"}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_cell_fails_only_its_own_waiters(self, workers, held):
        async def scenario(server):
            hold = await _hold_worker(server)
            other = asyncio.ensure_future(
                _request(server.port, "POST", "/v1/predict", self.OTHER)
            )
            if workers > 1:
                await other
                assert not hold.done()
            pending = asyncio.gather(
                _request(server.port, "POST", "/v1/predict", self.GOOD),
                _request(server.port, "POST", "/v1/predict", self.BAD),
            )
            await _until(
                lambda: server.batcher.stats()["in_flight"]
                == (4 if workers == 1 else 3)
            )
            held()
            good, bad = await pending
            await hold
            return good, bad, await other, server.batcher.stats()

        (s_good, _, b_good), (s_bad, _, b_bad), (s_other, _, b_other), stats = (
            _with_server(scenario, workers=workers)
        )
        # the cells that queued behind the held batch went as one; with
        # two workers OTHER went alone to the idle one
        assert stats["batches"] == (2 if workers == 1 else 3)
        assert s_bad == 400
        assert "nope" in json.loads(b_bad)["error"]
        for status, body, cell in (
            (s_good, b_good, self.GOOD), (s_other, b_other, self.OTHER)
        ):
            assert status == 200
            assert canonical_json(json.loads(body)["result"]) == _direct(cell)
        # the failure stayed out of the answer cache (HOLD, GOOD and
        # OTHER in)
        assert stats["answer_cache"]["size"] == 3

    def test_two_datasets_compute_on_two_workers_at_once(self, held):
        async def scenario(server):
            hold = await _hold_worker(server)
            # HOLD's worker is busy; a cell of another dataset goes to
            # the other worker and is answered before HOLD is released
            other = await _request(
                server.port, "POST", "/v1/predict",
                TestBatchFailureIsolation.OTHER,
            )
            computed_first = not hold.done()
            held()
            return other, computed_first, await hold, server.batcher.stats()

        (status, _, body), computed_first, (s_hold, _, _), stats = (
            _with_server(scenario, workers=2)
        )
        assert computed_first, "a second dataset waited for the busy worker"
        assert status == 200 and json.loads(body)["cached"] is False
        assert s_hold == 200
        assert stats["homes"] == {"amazon": 0, "citation": 1}

    def test_unknown_datasets_get_no_home(self):
        async def scenario(server):
            statuses = [
                (await _request(
                    server.port, "POST", "/v1/predict",
                    dict(CELL, dataset=f"junk-{i}"),
                ))[0]
                for i in range(20)
            ]
            return statuses, server.batcher.stats()

        statuses, stats = _with_server(scenario, workers=2)
        assert statuses == [400] * 20
        # client input cannot grow the homing table
        assert stats["homes"] == {}
        assert stats["answer_cache"]["size"] == 0

    def test_worker_death_mid_batch_is_503_and_the_pool_recovers(
        self, held
    ):
        async def scenario(server):
            [pid] = server.pool.pids()
            hold = await _hold_worker(server)
            os.kill(pid, signal.SIGKILL)
            # bounded: a client left waiting for EOF would hang here
            failed = await asyncio.wait_for(hold, timeout=30)
            after = (
                server.admission.pending,
                len(server.answer_cache),
                server.pool.pids(),
            )
            held()  # the replacement must not wait
            retried = await _request(server.port, "POST", "/v1/predict", HOLD)
            _, _, metrics = await _request(server.port, "GET", "/metrics")
            return pid, failed, after, retried, metrics.decode()

        pid, failed, after, retried, metrics = _with_server(scenario)
        status, headers, body = failed
        assert status == 503
        assert int(headers["retry-after"]) >= 1
        assert "retry" in json.loads(body)["error"]
        pending, cached, [new_pid] = after
        assert pending == 0  # no admission slot leaked
        assert cached == 0  # the failed cell is not in the answer cache
        assert new_pid not in (None, pid)  # the pool was replaced
        restarts = _validate_prometheus(metrics)[
            "graphbench_serve_worker_restarts_total"
        ]
        assert restarts["samples"][0][2] == 1
        status, _, body = retried
        assert status == 200
        assert json.loads(body)["cached"] is False
        assert canonical_json(json.loads(body)["result"]) == _direct(HOLD)

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="reads /proc/<pid>/fd"
    )
    def test_a_replacement_worker_keeps_no_server_socket(self, held):
        async def scenario(server):
            [pid] = server.pool.pids()
            hold = await _hold_worker(server)
            os.kill(pid, signal.SIGKILL)
            # the replacement forks while the server listens and HOLD's
            # client connection is open
            await asyncio.wait_for(hold, timeout=30)
            held()
            # answered, so the replacement is past its start-up
            status, _, _ = await _request(
                server.port, "POST", "/v1/predict", HOLD
            )
            [new_pid] = server.pool.pids()
            return status, _sockets(new_pid)

        status, sockets = _with_server(scenario)
        assert status == 200
        assert sockets == 1  # its own pipe end


def _sockets(pid: int) -> int:
    """How many of process ``pid``'s descriptors are sockets."""
    count = 0
    for name in os.listdir(f"/proc/{pid}/fd"):
        try:
            link = os.readlink(f"/proc/{pid}/fd/{name}")
        except FileNotFoundError:  # closed since the listing
            continue
        count += link.startswith("socket:")
    return count


def _hold_gil(seconds: float) -> None:
    """Compute for ``seconds`` in long C calls, each holding the GIL."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        sum(range(1_000_000))


class TestResponsiveness:
    def test_warm_hits_are_answered_while_a_miss_computes(
        self, monkeypatch
    ):
        """A miss holding the GIL for about a second must not hold up
        the warm hits that arrive while it computes."""
        busy = dict(CELL, platform="giraph")
        _patch_batches(monkeypatch, busy, lambda: _hold_gil(1.0))

        async def scenario(server):
            await _request(server.port, "POST", "/v1/predict", CELL)
            miss = asyncio.ensure_future(
                _request(server.port, "POST", "/v1/predict", busy)
            )
            await _until(lambda: server.batcher.batches_total == 2)
            for _ in range(200):
                status, _, body = await _request(
                    server.port, "POST", "/v1/predict", CELL
                )
                assert status == 200 and json.loads(body)["cached"]
            hits_first = not miss.done()
            return hits_first, (await miss)[0]

        hits_first, miss_status = _with_server(scenario)
        assert hits_first, "a warm hit waited behind the computing miss"
        assert miss_status == 200


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
        # the worker's trace cache, reported by the server
        assert health["trace_cache"]["misses"] >= 1
        assert health["trace_cache"]["entries"] >= 1
        assert health["workers"]["workers"] == 1
        assert health["workers"]["restarts"] == 0

    def test_each_request_counts_once(self):
        """Hits are answered without the batcher's compute path, and
        every request still counts once at the gate, in the answer
        cache and in ``serve.requests_total``."""

        async def scenario(server):
            for _ in range(3):
                await _request(server.port, "POST", "/v1/predict", CELL)
            _, _, metrics = await _request(server.port, "GET", "/metrics")
            return metrics.decode(), server.batcher.stats()

        metrics, stats = _with_server(scenario)
        samples = {
            name: family["samples"][0][2]
            for name, family in _validate_prometheus(metrics).items()
            if family["samples"]
        }
        assert samples["graphbench_serve_requests_total"] == 3
        assert samples["graphbench_serve_admitted_total"] == 3
        assert samples["graphbench_serve_answer_cache_hits_total"] == 2
        assert samples["graphbench_serve_answer_cache_misses_total"] == 1
        assert stats["batches"] == 1
        # the worker's cell was absorbed into the server's registry
        assert samples["graphbench_runner_cells_total"] == 1

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
            async def boom(index, requests):
                raise RuntimeError("executor blew up")

            server.pool.run = boom
            failed = await _request(server.port, "POST", "/v1/predict", CELL)
            del server.pool.run  # back to the bound method
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

    def test_deadline_expiry_is_504_and_still_warms_the_cache(self, held):
        async def scenario(server):
            hold = await _hold_worker(server)
            # CELL queues behind the held batch and cannot make 10 ms
            server.admission.deadline_seconds = 0.01
            timed_out = await _request(
                server.port, "POST", "/v1/predict", CELL
            )
            server.admission.deadline_seconds = 30.0
            held()
            await hold
            # the shielded computation kept running and warmed the
            # cache: a patient retry is a hit
            await _until(lambda: len(server.answer_cache) == 2)
            retried = await _request(server.port, "POST", "/v1/predict", CELL)
            return timed_out, retried, server.admission.timeouts_total

        (s1, _, b1), (s2, _, b2), timeouts = _with_server(scenario)
        assert s1 == 504
        assert "deadline" in json.loads(b1)["error"]
        assert timeouts == 1
        assert s2 == 200
        assert json.loads(b2)["cached"] is True
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
