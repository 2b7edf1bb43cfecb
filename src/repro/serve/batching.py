"""Request coalescing and micro-batching.

Heavy what-if traffic is highly repetitive — the same handful of
(platform, algorithm, dataset, cluster) cells dominate — so the
batcher exploits two kinds of redundancy before any computation runs:

* **coalescing** — concurrent requests for the *same* ``cell_key()``
  join one in-flight future; N identical questions trigger exactly one
  sweep (asserted in ``tests/test_serve.py`` and visible on
  ``/metrics`` as ``serve.coalesced_total``);
* **micro-batching** — *distinct* cells arriving within one window
  (default 10 ms) are flushed together as one
  :meth:`ApiService.predict_batch <repro.api.ApiService.predict_batch>`
  call, so the process-pool executor behind it amortizes its dispatch
  overhead across the batch instead of paying it per request.  A cell
  whose computation raises fails only its own waiters.

Dispatch is serialized by an :class:`asyncio.Lock` — one batch in the
executor at a time — which, together with
:class:`~repro.serve.admission.AdmissionController`, is the bounded
worker pool: the process count inside a batch is ``workers``, and
batches queue rather than fork unboundedly.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import time
import typing as _t

from repro import obs
from repro.api import ApiService, PredictRequest
from repro.serve.cache import AnswerCache

__all__ = ["RequestBatcher"]


class RequestBatcher:
    """Coalesces identical requests and micro-batches distinct ones.

    All bookkeeping runs on the event loop (single-threaded, so plain
    dicts are race-free); only the batch computation itself leaves the
    loop: :meth:`ApiService.predict_batch
    <repro.api.ApiService.predict_batch>` runs in ``executor``, a
    dedicated pool, since sharing the loop's default pool with other
    ``run_in_executor`` users (clients in tests, sweep jobs) can starve
    the batch thread and deadlock the whole service.
    """

    def __init__(
        self,
        service: ApiService,
        *,
        workers: int,
        window_seconds: float,
        answer_cache: AnswerCache,
        executor: concurrent.futures.Executor,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if window_seconds < 0:
            raise ValueError("window_seconds must be non-negative")
        self.service = service
        self.workers = int(workers)
        self.window_seconds = float(window_seconds)
        self.answer_cache = answer_cache
        self.executor = executor
        self._in_flight: dict[tuple, asyncio.Future] = {}
        self._pending: dict[tuple, PredictRequest] = {}
        self._flush_task: asyncio.Task | None = None
        self._dispatch_lock = asyncio.Lock()
        self.requests_total = 0
        self.coalesced_total = 0
        self.batches_total = 0

    # -- the request path --------------------------------------------------
    async def predict(self, request: PredictRequest) -> tuple[dict, bool]:
        """The answer payload for ``request`` plus whether it came from
        the warm cache.

        Never cancel the returned coroutine directly on timeout — wrap
        it in :func:`asyncio.shield` so a client deadline leaves the
        shared computation running (its answer still lands in the
        cache for the retry).
        """
        self.requests_total += 1
        session = obs.active()
        if session is not None:
            session.metrics.count("serve.requests_total")
        key = request.cell_key()
        payload = self.answer_cache.get(key)
        if payload is not None:
            return payload, True
        future = self._in_flight.get(key)
        if future is not None:
            self.coalesced_total += 1
            if session is not None:
                session.metrics.count("serve.coalesced_total")
            return await future, False
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._in_flight[key] = future
        self._pending[key] = request
        if self._flush_task is None or self._flush_task.done():
            self._flush_task = loop.create_task(self._window_flush())
        return await future, False

    # -- the batch path ----------------------------------------------------
    async def _window_flush(self) -> None:
        await asyncio.sleep(self.window_seconds)
        batch = self._pending
        self._pending = {}
        try:
            await self._dispatch(batch)
        finally:
            # Cells that arrived *while* this batch was in the executor
            # were parked in _pending with no flush scheduled (predict()
            # only schedules one when no task is running).  Hand them
            # their own window now, or they would wait forever.
            if self._pending:
                self._flush_task = asyncio.get_running_loop().create_task(
                    self._window_flush()
                )

    async def _dispatch(self, batch: dict[tuple, PredictRequest]) -> None:
        if not batch:
            return
        keys = list(batch)
        requests = [batch[k] for k in keys]
        session = obs.active()
        self.batches_total += 1
        if session is not None:
            session.metrics.count("serve.batches_total")
            session.metrics.observe("serve.batch_size", len(requests))
            session.emit(
                "serve_batch",
                cells=len(requests),
                in_flight=len(self._in_flight),
                workers=self.workers,
            )
        loop = asyncio.get_running_loop()
        started = time.monotonic()
        try:
            async with self._dispatch_lock:
                outcomes = await loop.run_in_executor(
                    self.executor, self.service.predict_batch,
                    requests, self.workers,
                )
        except Exception as exc:  # noqa: BLE001 - fail every waiter
            outcomes = [exc] * len(keys)
        else:
            if session is not None:
                session.metrics.observe(
                    "serve.batch_wall_seconds", time.monotonic() - started
                )
        for key, outcome in zip(keys, outcomes):
            future = self._in_flight.pop(key, None)
            if isinstance(outcome, Exception):
                # a failed cell fails only its own waiters, and is
                # never cached: a retry recomputes it
                if future is not None and not future.done():
                    future.set_exception(outcome)
                continue
            payload = outcome.to_dict()
            self.answer_cache.put(key, payload)
            if future is not None and not future.done():
                future.set_result(payload)

    # -- accounting --------------------------------------------------------
    def coalescing_ratio(self) -> float:
        """Fraction of requests that joined an in-flight computation."""
        return (
            self.coalesced_total / self.requests_total
            if self.requests_total
            else 0.0
        )

    def stats(self) -> dict[str, _t.Any]:
        return {
            "requests": self.requests_total,
            "coalesced": self.coalesced_total,
            "batches": self.batches_total,
            "coalescing_ratio": self.coalescing_ratio(),
            "in_flight": len(self._in_flight),
            "answer_cache": self.answer_cache.stats(),
        }
