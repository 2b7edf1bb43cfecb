"""Persistent worker processes: where a served miss is computed.

A miss runs :meth:`ApiService.predict_batch
<repro.api.ApiService.predict_batch>`, which is pure Python and holds
the GIL for as long as its cells take (a GraphLab cell's greedy
partitioning alone takes about 60 ms on kgs at scale 1.0, for each
cluster size).  Run on a thread of the server process, that stalls
every warm hit queued behind it.  So the server owns ``size`` worker
processes, forked once when it starts: each rebuilds the server's
runner through the sweep executor's initializer
(:func:`repro.core.sweep._init_worker`), keeps its trace cache and
partition contexts for its whole life, and answers one batch at a time
over a pipe.  The event loop watches each pipe with ``add_reader``, so
the server process runs no thread for this.

Every reply carries, besides the batch's outcomes, the worker's
trace-cache counter deltas, step-cost memo deltas and observability
snapshot (:func:`repro.core.sweep._worker_call`), which the server
folds into its own runner and session
(:func:`repro.core.sweep._absorb`), so ``/healthz`` and ``/metrics``
read the workers' work.

A worker that dies mid-batch (killed, out of memory) fails that batch
with :class:`WorkerDied`; the pool forks its replacement at once and
``serve.worker_restarts_total`` counts it.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import stat
import typing as _t
from multiprocessing.connection import Connection

from repro import obs
from repro.api import ApiService, PredictRequest, PredictResponse
from repro.core.sweep import (
    _absorb,
    _init_worker,
    _mp_context,
    _worker_call,
    _worker_config,
    _WorkerConfig,
)

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runner import Runner

__all__ = ["WorkerDied", "WorkerPool"]


class WorkerDied(RuntimeError):
    """A worker process exited before it answered its batch."""


def _drop_inherited_sockets(conn: Connection) -> None:
    """Release every socket this forked worker inherited, except its
    own pipe end ``conn`` and stdio.

    That is the server's ends of every worker pipe, this worker's own
    included (a duplex pipe is a socket pair; held here, they would keep
    a worker from ever reading EOF), the event loop's self-pipe, and —
    for a replacement forked while the server runs — the listening
    socket and every open client connection.  Each is pointed at
    ``/dev/null`` rather than closed: the forked copies of the server's
    socket objects still name these descriptors, and a stray close or
    signal wake-up must not reach a file that reuses the number.
    """
    if not os.path.isdir("/dev/fd"):
        return  # no fork on such a platform: spawned, nothing inherited
    keep = conn.fileno()
    devnull = os.open(os.devnull, os.O_RDWR)
    try:
        for name in os.listdir("/dev/fd"):
            fd = int(name)
            if fd <= 2 or fd in (keep, devnull):
                continue
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(devnull, fd)
            except OSError:  # the listing's own, now closed, descriptor
                pass
    finally:
        os.close(devnull)


def _worker_main(conn: Connection, config: _WorkerConfig) -> None:
    """One worker's life: answer batches until the server closes the
    pipe."""
    # Shutdown belongs to the server: a terminal's Ctrl-C reaches the
    # whole process group, and a worker exits when its pipe closes.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _drop_inherited_sockets(conn)
    _init_worker(config)
    while True:
        try:
            requests = conn.recv()
        except EOFError:
            return
        try:
            reply: object = _worker_call(
                lambda runner: _predict(runner, requests)
            )
        except Exception as exc:  # noqa: BLE001 - the batch's own outcome
            reply = exc
        try:
            conn.send(reply)
        except Exception as exc:  # noqa: BLE001 - pickling fails first
            conn.send(RuntimeError(f"batch reply does not pickle: {exc}"))


def _predict(
    runner: "Runner", requests: list[PredictRequest]
) -> tuple[list[PredictResponse | Exception], dict[str, int]]:
    """A batch's outcomes and the worker's trace-cache size after it."""
    outcomes = ApiService(runner).predict_batch(requests)
    cache = runner.trace_cache
    return outcomes, {
        "entries": len(cache), "trace_bytes": cache.trace_bytes,
    }


class WorkerPool:
    """``size`` persistent worker processes computing batches for one
    runner; :meth:`run` sends a batch to one of them.

    Call :meth:`start` before the process starts any thread — the
    workers are forked, and a fork copies only the calling thread — and
    :meth:`close` from the event loop when done.  One batch at a time
    per worker: the caller (:class:`~repro.serve.batching.RequestBatcher`)
    never awaits two :meth:`run` calls on one index at once.
    """

    def __init__(self, runner: "Runner", size: int) -> None:
        if size < 1:
            raise ValueError("workers must be >= 1")
        self.runner = runner
        self.size = int(size)
        self.restarts = 0
        self._ctx = _mp_context()
        self._procs: list[multiprocessing.process.BaseProcess | None] = (
            [None] * self.size
        )
        self._conns: list[Connection | None] = [None] * self.size
        self._replies: list[asyncio.Future | None] = [None] * self.size
        #: each worker's trace-cache size as of its last batch
        self._caches: list[dict[str, int]] = [{}] * self.size
        self._closed = False

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Fork every worker."""
        session = obs.active()
        if session is not None:
            # Forked workers inherit the sink's buffer; flush now so no
            # server bytes can be replayed from a child.
            session.events.flush()
        for index in range(self.size):
            self._spawn(index)

    def _spawn(self, index: int) -> None:
        conn, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child, _worker_config(self.runner)),
            name=f"graphbench-serve-worker-{index}",
            daemon=True,
        )
        proc.start()
        child.close()
        self._procs[index], self._conns[index] = proc, conn
        self._caches[index] = {}

    def _retire(self, index: int) -> None:
        """Close worker ``index``'s pipe and reap its process."""
        conn, proc = self._conns[index], self._procs[index]
        self._conns[index] = self._procs[index] = None
        if conn is None or proc is None:
            return
        asyncio.get_running_loop().remove_reader(conn.fileno())
        conn.close()
        # An idle worker exits on EOF at once; a busy one is killed.
        proc.join(timeout=0.2)
        if proc.is_alive():
            proc.kill()
            proc.join()

    def close(self) -> None:
        """Stop every worker; batches in flight fail with
        :class:`WorkerDied`."""
        self._closed = True
        for index in range(self.size):
            reply = self._replies[index]
            if reply is not None and not reply.done():
                reply.set_exception(EOFError("the server is shutting down"))
            self._retire(index)

    # -- the batch path ----------------------------------------------------
    async def run(
        self, index: int, requests: list[PredictRequest]
    ) -> list[PredictResponse | Exception]:
        """Compute ``requests`` on worker ``index``: one outcome per
        request, as :meth:`ApiService.predict_batch
        <repro.api.ApiService.predict_batch>` returns them.

        Raises :class:`WorkerDied` when the worker exits first, and
        whatever else the whole batch raised in the worker.
        """
        if self._conns[index] is None:
            if self._closed:
                raise WorkerDied("the server is shutting down")
            self._spawn(index)
        conn = self._conns[index]
        assert conn is not None
        loop = asyncio.get_running_loop()
        reply = loop.create_future()

        def readable() -> None:
            loop.remove_reader(conn.fileno())
            if reply.done():
                return
            try:
                reply.set_result(conn.recv())
            except Exception as exc:  # noqa: BLE001 - EOF: the worker died
                reply.set_exception(exc)

        loop.add_reader(conn.fileno(), readable)
        self._replies[index] = reply
        try:
            conn.send(requests)
            answer = await reply
        except asyncio.CancelledError:
            # its late reply would answer the next batch
            self._retire(index)
            raise
        except Exception as exc:
            self._retire(index)
            if not self._closed:
                self._restart(index)
            raise WorkerDied(
                f"serve worker {index} stopped before answering; "
                f"retry the request"
            ) from exc
        finally:
            self._replies[index] = None
        if isinstance(answer, Exception):
            raise answer
        (outcomes, cache), *deltas = answer
        _absorb(self.runner, *deltas)
        self._caches[index] = cache
        return outcomes

    def _restart(self, index: int) -> None:
        self.restarts += 1
        session = obs.active()
        if session is not None:
            session.metrics.count("serve.worker_restarts_total")
        self._spawn(index)

    # -- accounting --------------------------------------------------------
    def pids(self) -> list[int | None]:
        return [proc.pid if proc else None for proc in self._procs]

    def cache_size(self) -> dict[str, int]:
        """Trace-cache entries and pinned bytes over all workers, as of
        each one's last batch."""
        return {
            key: sum(cache.get(key, 0) for cache in self._caches)
            for key in ("entries", "trace_bytes")
        }

    def stats(self) -> dict[str, _t.Any]:
        return {
            "workers": self.size,
            "pids": self.pids(),
            "restarts": self.restarts,
        }
