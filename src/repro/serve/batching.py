"""Request coalescing and batching over the worker processes.

Heavy what-if traffic is highly repetitive — the same handful of
(platform, algorithm, dataset, cluster) cells dominate — so the
batcher exploits two kinds of redundancy before any computation runs:

* **coalescing** — concurrent requests for the *same* ``cell_key()``
  join one in-flight future; N identical questions trigger exactly one
  computation (asserted in ``tests/test_serve.py`` and visible on
  ``/metrics`` as ``serve.coalesced_total``);
* **batching** — the *distinct* cells that queued for a worker while
  it computed its previous batch go to it together as one
  :meth:`ApiService.predict_batch
  <repro.api.ApiService.predict_batch>` call.  There is no window: an
  idle worker gets a cell the moment it arrives.  A cell whose
  computation raises fails only its own waiters.

Cells of one dataset always go to the same worker
(:class:`~repro.serve.workers.WorkerPool`), so no trace recording or
partition context is built twice.  Each worker computes one batch at
a time; together with
:class:`~repro.serve.admission.AdmissionController` that bounds the
work in flight.
"""

from __future__ import annotations

import asyncio
import time
import typing as _t

from repro import obs
from repro.api import PredictRequest
from repro.datasets import DATASET_NAMES
from repro.serve.cache import AnswerCache
from repro.serve.workers import WorkerPool

__all__ = ["RequestBatcher"]


class RequestBatcher:
    """Answers cells from the answer cache, coalesces identical
    misses and batches distinct ones onto the worker processes.

    All bookkeeping runs on the event loop (single-threaded, so plain
    dicts are race-free); only the computation leaves the process.
    """

    def __init__(self, pool: WorkerPool, *, answer_cache: AnswerCache) -> None:
        self.pool = pool
        self.answer_cache = answer_cache
        self._in_flight: dict[tuple, asyncio.Future] = {}
        #: per worker: the cells waiting for its next batch
        self._queues: list[dict[tuple, PredictRequest]] = [
            {} for _ in range(pool.size)
        ]
        self._draining: list[asyncio.Task | None] = [None] * pool.size
        #: dataset -> the worker that computes its cells
        self._home: dict[str, int] = {}
        self.requests_total = 0
        self.coalesced_total = 0
        self.batches_total = 0

    # -- the request path --------------------------------------------------
    def lookup(self, request: PredictRequest) -> dict | None:
        """The warm answer for ``request``, or ``None`` on a miss.

        Every request passes here exactly once, so this is where it is
        counted; a miss then goes to :meth:`compute`.
        """
        self.requests_total += 1
        session = obs.active()
        if session is not None:
            session.metrics.count("serve.requests_total")
        return self.answer_cache.get(request.cell_key())

    async def compute(self, request: PredictRequest) -> dict:
        """The answer payload for a missed ``request``, computed by its
        dataset's worker (or by the computation already in flight).

        Never cancel the returned coroutine directly on timeout — wrap
        it in :func:`asyncio.shield` so a client deadline leaves the
        shared computation running (its answer still lands in the
        cache for the retry).
        """
        key = request.cell_key()
        future = self._in_flight.get(key)
        if future is not None:
            self.coalesced_total += 1
            session = obs.active()
            if session is not None:
                session.metrics.count("serve.coalesced_total")
            return await future
        loop = asyncio.get_running_loop()
        future = self._in_flight[key] = loop.create_future()
        index = self._worker_for(request.dataset)
        self._queues[index][key] = request
        if self._draining[index] is None:
            self._draining[index] = loop.create_task(self._drain(index))
        return await future

    def _worker_for(self, dataset: str) -> int:
        """The worker homing ``dataset``: a new dataset goes to the
        worker with the fewest.  Only registered datasets get a home, so
        client input cannot grow the table; any other name goes to
        worker 0, where its cell fails validation."""
        index = self._home.get(dataset)
        if index is None:
            if dataset not in DATASET_NAMES:
                return 0
            homed = list(self._home.values())
            index = min(range(self.pool.size), key=homed.count)
            self._home[dataset] = index
        return index

    # -- the batch path ----------------------------------------------------
    async def _drain(self, index: int) -> None:
        """Feed worker ``index`` until its queue is empty: each batch is
        every cell that queued while the previous one ran."""
        try:
            while self._queues[index]:
                batch = self._queues[index]
                self._queues[index] = {}
                await self._dispatch(index, batch)
        finally:
            self._draining[index] = None

    async def _dispatch(
        self, index: int, batch: dict[tuple, PredictRequest]
    ) -> None:
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
                worker=index,
            )
        started = time.monotonic()
        try:
            outcomes = await self.pool.run(index, requests)
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
            "homes": dict(self._home),
            "answer_cache": self.answer_cache.stats(),
        }
