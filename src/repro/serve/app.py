"""The ``graphbench serve`` HTTP application.

A deliberately small HTTP/1.1 server on raw :mod:`asyncio` streams —
the container ships no web framework, and five routes do not justify
one:

====================  ======================================================
``POST /v1/predict``  one cell: admission → answer cache → coalesce →
                      batch → worker process → response
``POST /v1/sweep``    a named grid as a background job (``202`` + job id)
``GET /v1/jobs/{id}`` the :class:`~repro.api.JobStatus` of a submission,
                      from the service's job table
``GET /healthz``      liveness + admission/batcher/cache stats
``GET /metrics``      the ambient :mod:`repro.obs` Prometheus exposition
====================  ======================================================

Every response body is a v1 payload from :mod:`repro.api`; the predict
envelope is ``{"api_version", "job_id", "cached", "result"}`` where
``result`` is exactly the :class:`~repro.api.PredictResponse` dict a
direct ``Runner.run(spec)`` would produce — byte-identity between the
served and direct answer is an acceptance test, not an aspiration.

Connections are one-shot (``Connection: close``): the load profile is
many short independent queries, and forgoing keep-alive keeps the
parser a dozen lines with no pipelining states to get wrong.

A warm hit is answered on the event loop without leaving it; a miss
is computed in one of the server's persistent worker processes
(:mod:`repro.serve.workers`), so however long a miss takes, it holds
no lock the event loop needs.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import time
import typing as _t

from repro import obs
from repro.api import (
    API_VERSION,
    ApiError,
    ApiService,
    PredictRequest,
    SweepRequest,
)
from repro.serve.admission import AdmissionController
from repro.serve.batching import RequestBatcher
from repro.serve.cache import AnswerCache
from repro.serve.workers import WorkerDied, WorkerPool

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runner import Runner

__all__ = ["GraphbenchServer"]

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: request bodies past this size are refused outright
_MAX_BODY = 1 << 20

#: finished answers kept warm (LRU beyond this)
_ANSWER_CACHE_SIZE = 4096


class _HttpError(Exception):
    """An error that maps straight to a response status."""

    def __init__(self, status: int, message: str,
                 headers: tuple[tuple[str, str], ...] = ()) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers


class GraphbenchServer:
    """The prediction service: a thin async adapter over one
    :class:`~repro.api.ApiService` (runner views, batched predicts, the
    job table), adding HTTP, an admission gate, an answer cache, a
    coalescing batcher and ``workers`` persistent worker processes
    that compute the misses.

    ``start()`` forks the workers, then binds (``port=0`` picks a free
    port — the tests and the load benchmark rely on that);
    ``serve_forever()`` blocks; ``aclose()`` tears down.  The server
    installs an ambient :mod:`repro.obs` session at start when none is
    active, so ``/metrics`` always has a registry to expose.
    """

    def __init__(
        self,
        *,
        runner: "Runner | None" = None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        max_pending: int = 64,
        deadline_seconds: float = 30.0,
        events_path: str | None = None,
    ) -> None:
        self.service = ApiService(runner)
        self.host = host
        self.port = port
        self.answer_cache = AnswerCache(maxsize=_ANSWER_CACHE_SIZE)
        self.pool = WorkerPool(self.service.runner, workers)
        # Background sweep jobs get their own single-thread executor,
        # which also caps sweep concurrency at one — extra jobs queue.
        # Never the loop's default pool, which other code may exhaust.
        self._sweep_executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-sweep"
        )
        self.batcher = RequestBatcher(
            self.pool, answer_cache=self.answer_cache
        )
        self.admission = AdmissionController(
            max_pending=max_pending, deadline_seconds=deadline_seconds
        )
        self.events_path = events_path
        self._sweeps: set[asyncio.Future] = set()
        self._server: asyncio.base_events.Server | None = None
        self._owns_obs = False
        self.requests_served = 0
        self.errors_total = 0

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        """Fork the workers, then bind and begin accepting; resolves
        ``self.port`` when 0."""
        if obs.active() is None:
            obs.start(events_path=self.events_path, role="main")
            self._owns_obs = True
        # Before any thread or socket of the server exists, so the
        # workers inherit neither.
        self.pool.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        session = obs.active()
        if session is not None:
            session.emit("serve_started", host=self.host, port=self.port)

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        for sweep in list(self._sweeps):
            sweep.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        session = obs.active()
        if session is not None:
            session.emit("serve_stopped", requests=self.requests_served)
        self.pool.close()
        self._sweep_executor.shutdown(wait=False, cancel_futures=True)
        if self._owns_obs:
            obs.stop()
            self._owns_obs = False

    # -- connection handling ----------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        started = time.monotonic()
        status = 500
        route = "?"
        try:
            method, target, body = await self._read_request(reader)
            route = f"{method} {target.split('?', 1)[0]}"
            status, payload, headers = await self._route(
                method, target, body
            )
            self._write_response(writer, status, payload, headers)
        except _HttpError as exc:
            status = exc.status
            self._write_response(
                writer, exc.status,
                {"api_version": API_VERSION, "error": exc.message},
                exc.headers,
            )
        except (asyncio.IncompleteReadError, ConnectionError):
            status = 0  # client went away mid-request; nothing to answer
        except Exception as exc:  # noqa: BLE001 - the 500 of last resort
            self._write_response(
                writer, 500,
                {"api_version": API_VERSION, "error": str(exc)},
            )
        finally:
            self.requests_served += 1
            if status >= 500:
                self.errors_total += 1
            session = obs.active()
            if session is not None and status:
                session.metrics.observe(
                    "serve.request_latency_seconds",
                    time.monotonic() - started,
                )
                session.emit(
                    "serve_request", route=route, status=status,
                )
            try:
                await writer.drain()
                # Send the FIN explicitly: a worker forked while this
                # connection was open holds a copy of its socket, and
                # close() alone would not end the client's read.
                if writer.can_write_eof():
                    writer.write_eof()
                writer.close()
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> tuple[str, str, bytes]:
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise _HttpError(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpError(400, "bad Content-Length") from None
        if length < 0:
            raise _HttpError(400, "bad Content-Length") from None
        if length > _MAX_BODY:
            raise _HttpError(400, f"body exceeds {_MAX_BODY} bytes")
        body = await reader.readexactly(length) if length else b""
        return method, target, body

    def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict | str,
        headers: tuple[tuple[str, str], ...] = (),
    ) -> None:
        if isinstance(payload, str):
            body = payload.encode()
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(
                payload, sort_keys=True, separators=(",", ":")
            ).encode()
            content_type = "application/json"
        head = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}"]
        head.append(f"Content-Type: {content_type}")
        head.append(f"Content-Length: {len(body)}")
        for name, value in headers:
            head.append(f"{name}: {value}")
        head.append("Connection: close")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)

    # -- routing -----------------------------------------------------------
    async def _route(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, dict | str, tuple[tuple[str, str], ...]]:
        path = target.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz" and method == "GET":
            return 200, self._health_payload(), ()
        if path == "/metrics" and method == "GET":
            return 200, self._metrics_text(), ()
        if path == "/v1/predict":
            if method != "POST":
                raise _HttpError(405, "POST only")
            return await self._predict(body)
        if path == "/v1/sweep":
            if method != "POST":
                raise _HttpError(405, "POST only")
            return await self._sweep(body)
        if path.startswith("/v1/jobs/") and method == "GET":
            job_id = path.rsplit("/", 1)[1]
            try:
                return 200, self.service.result(job_id).to_dict(), ()
            except KeyError:
                raise _HttpError(404, f"unknown job {job_id!r}") from None
        raise _HttpError(404, f"no route for {method} {path}")

    # -- handlers ----------------------------------------------------------
    async def _predict(
        self, body: bytes
    ) -> tuple[int, dict, tuple[tuple[str, str], ...]]:
        try:
            request = PredictRequest.from_json(body)
        except ApiError as exc:
            raise _HttpError(400, str(exc)) from None
        if not self.admission.try_admit():
            raise _HttpError(
                429, "server at capacity",
                (("Retry-After", str(self.admission.retry_after())),),
            )
        started = time.monotonic()
        try:
            # A warm hit is answered right here, without a task.
            result = self.batcher.lookup(request)
            cached = result is not None
            if not cached:
                result = await self._compute(request)
        finally:
            # any exception from the batcher future — not just the ones
            # mapped to statuses in _compute — must return the slot, or
            # the gate leaks capacity until restart
            self.admission.release(time.monotonic() - started)
        job = self.service.open_job("predict")
        self.service.finish_job(job.job_id, result)
        return 200, {
            "api_version": API_VERSION,
            "job_id": job.job_id,
            "cached": cached,
            "result": result,
        }, ()

    async def _compute(self, request: PredictRequest) -> dict:
        """A missed cell's answer payload, with its failures mapped to
        statuses."""
        try:
            # shield: a client deadline must not cancel the shared
            # computation — it finishes and warms the cache anyway.
            return await asyncio.wait_for(
                asyncio.shield(self.batcher.compute(request)),
                timeout=self.admission.deadline_seconds,
            )
        except asyncio.TimeoutError:
            self.admission.note_timeout()
            raise _HttpError(
                504,
                f"deadline of {self.admission.deadline_seconds:g}s "
                f"exceeded; retry for the cached answer",
            ) from None
        except WorkerDied as exc:
            raise _HttpError(503, str(exc), (("Retry-After", "1"),)) from None
        except ApiError as exc:
            raise _HttpError(400, str(exc)) from None
        except (KeyError, ValueError) as exc:
            raise _HttpError(400, str(exc)) from None

    async def _sweep(
        self, body: bytes
    ) -> tuple[int, dict, tuple[tuple[str, str], ...]]:
        try:
            request = SweepRequest.from_json(body)
        except ApiError as exc:
            raise _HttpError(400, str(exc)) from None
        if not self.admission.try_admit():
            raise _HttpError(
                429, "server at capacity",
                (("Retry-After", str(self.admission.retry_after())),),
            )
        # job-table writes stay on the event-loop thread: the executor
        # only computes, and the done callback runs on the loop
        job = self.service.open_job("sweep")
        self.service.start_job(job.job_id)
        started = time.monotonic()
        sweep = asyncio.get_running_loop().run_in_executor(
            self._sweep_executor, self.service.execute, request
        )
        self._sweeps.add(sweep)

        def finish(done: asyncio.Future) -> None:
            self._sweeps.discard(done)
            self.admission.release(time.monotonic() - started)
            if not done.cancelled():
                self.service.finish_job(job.job_id, done.result())

        sweep.add_done_callback(finish)
        return 202, job.to_dict(), ()

    # -- helpers -----------------------------------------------------------
    def _health_payload(self) -> dict:
        return {
            "api_version": API_VERSION,
            "status": "ok",
            "requests_served": self.requests_served,
            "admission": self.admission.stats(),
            "batching": self.batcher.stats(),
            "workers": self.pool.stats(),
            "trace_cache": self._trace_cache_stats(),
        }

    def _trace_cache_stats(self) -> dict:
        """The server's own cache (sweep jobs) plus the workers': their
        counters are merged batch by batch, their sizes summed here."""
        stats = self.service.runner.trace_cache.stats()
        for key, value in self.pool.cache_size().items():
            stats[key] += value
        return stats

    def _metrics_text(self) -> str:
        session = obs.active()
        if session is None:  # pragma: no cover - start() installs one
            return "# no active observability session\n"
        # surface the batcher/admission counters that live outside the
        # registry so one scrape shows the whole serving picture
        m = session.metrics
        m.gauge("serve.coalescing_ratio", self.batcher.coalescing_ratio())
        m.gauge("serve.answer_cache_hit_rate", self.answer_cache.hit_rate())
        m.gauge("serve.pending", self.admission.pending)
        return m.to_prometheus()
