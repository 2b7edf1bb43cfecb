"""Admission control: the server's overload valve.

A prediction service under open-loop traffic has no natural
back-pressure — clients keep arriving whether or not the worker
processes can keep up.  The controller bounds the number of requests
allowed past the front door at once; everything beyond the bound is
refused *immediately* with ``429 Too Many Requests`` and a
``Retry-After`` hint derived from observed service time, which keeps
the queue short and the tail latency of admitted requests honest
(shedding beats queueing for p99).

Each admitted request also carries a deadline: the handler awaits its
answer under :func:`asyncio.wait_for` and converts expiry into ``504``.
The underlying computation is *not* cancelled — it finishes and lands
in the answer cache, so a timed-out client's retry is a warm hit.
"""

from __future__ import annotations

import typing as _t

from repro import obs

__all__ = ["AdmissionController"]


class AdmissionController:
    """Bounded-concurrency gate with a service-time-based retry hint.

    The server's event loop is single-threaded, so a plain counter is
    race-free; ``max_pending`` bounds requests between admission and
    response (queued *and* executing).
    """

    def __init__(
        self,
        *,
        max_pending: int = 64,
        deadline_seconds: float = 30.0,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive")
        self.max_pending = int(max_pending)
        self.deadline_seconds = float(deadline_seconds)
        self.pending = 0
        self.admitted_total = 0
        self.rejected_total = 0
        self.timeouts_total = 0
        # EWMA of per-request service seconds, seeding the Retry-After
        # hint; starts at a conservative half second.
        self._service_ewma = 0.5

    # -- the gate ----------------------------------------------------------
    def try_admit(self) -> bool:
        """Admit one request, or refuse it (the caller answers 429)."""
        session = obs.active()
        if self.pending >= self.max_pending:
            self.rejected_total += 1
            if session is not None:
                session.metrics.count("serve.rejected_total")
                session.emit(
                    "serve_rejected",
                    pending=self.pending,
                    max_pending=self.max_pending,
                )
            return False
        self.pending += 1
        self.admitted_total += 1
        if session is not None:
            session.metrics.count("serve.admitted_total")
            session.metrics.gauge_max("serve.pending_peak", self.pending)
        return True

    def release(self, service_seconds: float | None = None) -> None:
        """One admitted request finished (feeds the retry hint)."""
        self.pending = max(0, self.pending - 1)
        if service_seconds is not None and service_seconds >= 0:
            self._service_ewma = (
                0.8 * self._service_ewma + 0.2 * float(service_seconds)
            )

    # -- hints -------------------------------------------------------------
    def retry_after(self) -> int:
        """Seconds a refused client should wait: enough for the
        present queue to drain at the observed service rate, at least
        one second so the header is always meaningful."""
        estimate = self._service_ewma * max(1, self.pending)
        return max(1, int(round(min(estimate, 60.0))))

    def note_timeout(self) -> None:
        """An admitted request ran past its deadline (the caller
        answers 504; the computation keeps warming the cache)."""
        self.timeouts_total += 1
        session = obs.active()
        if session is not None:
            session.metrics.count("serve.deadline_timeouts_total")

    def stats(self) -> dict[str, _t.Any]:
        return {
            "pending": self.pending,
            "max_pending": self.max_pending,
            "admitted": self.admitted_total,
            "rejected": self.rejected_total,
            "timeouts": self.timeouts_total,
            "retry_after": self.retry_after(),
        }
