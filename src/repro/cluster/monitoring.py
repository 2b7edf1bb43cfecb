"""Ganglia-like resource monitoring for simulated runs.

Platform engines record piecewise-constant resource usage intervals
(CPU fraction, network bytes/s) and memory step changes per node while
they build their execution timeline.  The monitor then reproduces the
paper's post-processing (Section 4.2): sample the traces and linearly
interpolate onto **100 normalized points** over the job's lifetime, so
traces from jobs of different lengths are comparable (Figures 5–10).

Every record may carry the **telemetry span id** of the cost rule that
emitted it (see :mod:`repro.core.telemetry`), so a peak or mean
anomaly in a sampled series is traceable back to the exact charging
site — :meth:`ResourceTrace.peak_attribution` walks a metric's peak
sample back to its contributing intervals and their spans.
"""

from __future__ import annotations

import typing as _t
from collections import defaultdict

import numpy as np

__all__ = [
    "ResourceTrace", "RowRecords", "normalize_series", "per_row", "MASTER",
    "worker_node",
]

#: canonical node name for the master
MASTER = "master"


def worker_node(i: int) -> str:
    """Canonical node name of worker ``i``."""
    return f"worker{i}"


class ResourceTrace:
    """Per-node resource usage over simulated time.

    Metrics:

    * ``cpu`` — utilization fraction of the whole node, 0..1
      (the paper plots percent of all 8 cores).
    * ``net_in`` / ``net_out`` — bytes per second.
    * ``memory`` — bytes in use (step function set by events).

    The trace is lazy.  A superstep loop hands its records to
    :meth:`rows` as a function that makes them as arrays, one row per
    superstep, and those rows (with every record made after them) wait
    in call order until something reads the trace.  The first read
    (:meth:`intervals`, :meth:`memory_events`, :meth:`nodes`,
    :attr:`end_time`, sampling, attribution or pickling) makes the
    records and builds the per-(node, metric) interval lists and
    per-node memory events, in exactly the order and with exactly the
    drops (zero-length intervals, zero-valued metrics) of per-step
    :meth:`record` calls.  A run that nobody inspects never computes
    its superstep records.
    """

    INTERVAL_METRICS = ("cpu", "net_in", "net_out")

    def __init__(self) -> None:
        #: (node, metric) -> [(t0, t1, value, span id)]; the span id is
        #: the telemetry cost span of the emitting rule (None = untracked)
        self._intervals: dict[
            tuple[str, str], list[tuple[float, float, float, int | None]]
        ] = defaultdict(list)
        self._memory: dict[str, list[tuple[float, float, int | None]]] = defaultdict(
            list
        )
        #: row blocks not yet built, and the records made after them,
        #: in call order
        self._pending: list = []
        self._end = 0.0

    @property
    def end_time(self) -> float:
        """The trace's horizon: the latest end of a positive-length
        interval, memory event or :meth:`cover` call."""
        if self._pending:
            self._build()
        return self._end

    @end_time.setter
    def end_time(self, value: float) -> None:
        if self._pending:
            self._build()
        self._end = value

    def cover(self, t: float) -> None:
        """Extend :attr:`end_time` to at least ``t`` (without building)."""
        self._end = max(self._end, t)

    def __getstate__(self) -> dict:
        # pending row blocks hold their engine's fill function
        if self._pending:
            self._build()
        return self.__dict__

    # -- recording -------------------------------------------------------------
    def record(
        self,
        node: str,
        t0: float,
        t1: float,
        *,
        cpu: float = 0.0,
        net_in: float = 0.0,
        net_out: float = 0.0,
        span: int | None = None,
    ) -> None:
        """Add resource use on ``node`` over [t0, t1).

        Overlapping intervals accumulate (e.g. compute and transfer at
        once).  ``span`` attributes the record to a telemetry cost
        span.
        """
        if t1 <= t0:
            if t1 < t0:
                raise ValueError(f"interval ends before it starts: {t0}..{t1}")
            return
        if self._pending:
            self._pending.append((node, t0, t1, cpu, net_in, net_out, span))
        else:
            self._put(node, t0, t1, cpu, net_in, net_out, span)
        if t1 > self._end:
            self._end = t1

    def _put(self, node, t0, t1, cpu, net_in, net_out, span) -> None:
        intervals = self._intervals
        if cpu:
            intervals[(node, "cpu")].append((t0, t1, cpu, span))
        if net_in:
            intervals[(node, "net_in")].append((t0, t1, net_in, span))
        if net_out:
            intervals[(node, "net_out")].append((t0, t1, net_out, span))

    def set_memory(
        self, node: str, t: float, nbytes: float, *, span: int | None = None
    ) -> None:
        """Record that ``node`` uses ``nbytes`` from time ``t`` on."""
        event = (t, float(nbytes), span)
        if self._pending:
            self._pending.append((node, event))
        else:
            self._memory[node].append(event)
        self._end = max(self._end, t)

    def rows(self, n: int, fill: _t.Callable[..., None], *args) -> None:
        """Record ``n`` rows (supersteps) with array values, later.

        ``fill(rows, *args)`` makes the records through a
        :class:`RowRecords` when the trace is first read (or pickled);
        until then the trace keeps ``fill`` and ``args``.
        """
        self._pending.append(RowRecords(n, fill, args))

    def _build(self) -> None:
        """Build every pending row block and later record, in order."""
        pending, self._pending = self._pending, []
        for entry in pending:
            if isinstance(entry, RowRecords):
                entry._replay(self)
            elif len(entry) == 2:
                self._memory[entry[0]].append(entry[1])
            else:
                self._put(*entry)

    # -- reading -----------------------------------------------------------------
    def intervals(
        self, node: str, metric: str
    ) -> list[tuple[float, float, float, int | None]]:
        """``metric``'s intervals on ``node`` as ``(t0, t1, value,
        span_id)`` tuples, in recording order."""
        if self._pending:
            self._build()
        return list(self._intervals.get((node, metric), ()))

    def memory_events(self, node: str) -> list[tuple[float, float, int | None]]:
        """``node``'s memory events as ``(t, bytes, span_id)`` tuples,
        in recording order."""
        if self._pending:
            self._build()
        return list(self._memory.get(node, ()))

    def nodes(self) -> list[str]:
        """All node names seen by the monitor."""
        if self._pending:
            self._build()
        seen = {n for n, _ in self._intervals} | set(self._memory)
        return sorted(seen)

    # -- sampling ----------------------------------------------------------------
    def _sorted_memory(self, node: str) -> list[tuple[float, float, int | None]]:
        """Memory events of ``node`` in (time, value) order — the last
        event at or before a sample time defines the sampled value."""
        return sorted(self.memory_events(node), key=lambda e: (e[0], e[1]))

    def sample(self, node: str, metric: str, times: np.ndarray) -> np.ndarray:
        """Value of ``metric`` on ``node`` at each time in ``times``."""
        times = np.asarray(times, dtype=np.float64)
        if metric == "memory":
            events = self._sorted_memory(node)
            out = np.zeros(len(times))
            if not events:
                return out
            ts = np.asarray([e[0] for e in events], dtype=np.float64)
            vals = np.asarray([e[1] for e in events], dtype=np.float64)
            idx = np.searchsorted(ts, times, side="right") - 1
            valid = idx >= 0
            out[valid] = vals[idx[valid]]
            return out
        if metric not in self.INTERVAL_METRICS:
            raise ValueError(f"unknown metric {metric!r}")
        out = np.zeros(len(times))
        for t0, t1, value, _ in self.intervals(node, metric):
            mask = (times >= t0) & (times < t1)
            out[mask] += value
        return out

    def series(
        self, node: str, metric: str, *, num_points: int = 100
    ) -> np.ndarray:
        """The paper's normalized trace: ``num_points`` samples evenly
        spread over [0, end_time] (Section 4.2's interpolation)."""
        horizon = self.end_time if self.end_time > 0 else 1.0
        times = np.linspace(0.0, horizon, num_points, endpoint=False)
        # Sample at the midpoint of each normalized slice, which is the
        # 1-second-Ganglia-sample analogue.
        step = horizon / num_points
        return self.sample(node, metric, times + step / 2)

    def peak(self, node: str, metric: str) -> float:
        """Maximum sampled value over a fine grid."""
        return float(self.series(node, metric, num_points=400).max())

    def mean(self, node: str, metric: str) -> float:
        """Time-average over the job's lifetime."""
        return float(self.series(node, metric, num_points=400).mean())

    # -- attribution -------------------------------------------------------------
    def attribution(
        self, node: str, metric: str, t: float
    ) -> list[tuple[float, float, float, int | None]]:
        """The records contributing to ``metric`` on ``node`` at time
        ``t``, as ``(value, t0, t1, span_id)`` tuples.

        For interval metrics these are the overlapping intervals; for
        memory it is the single defining event (``t1`` equals ``t0``).
        """
        if metric == "memory":
            events = self._sorted_memory(node)
            last = None
            for t0, value, span in events:
                if t0 <= t:
                    last = (value, t0, t0, span)
            return [last] if last is not None else []
        if metric not in self.INTERVAL_METRICS:
            raise ValueError(f"unknown metric {metric!r}")
        return [
            (value, t0, t1, span)
            for t0, t1, value, span in self.intervals(node, metric)
            if t0 <= t < t1
        ]

    def peak_attribution(self, node: str, metric: str) -> dict:
        """Trace the peak sample of ``metric`` on ``node`` back to the
        records (and telemetry spans) that produced it.

        Returns ``{"time", "value", "contributors"}`` where
        ``contributors`` is the :meth:`attribution` list at the peak
        sample time, largest contribution first.
        """
        num_points = 400
        horizon = self.end_time if self.end_time > 0 else 1.0
        step = horizon / num_points
        times = np.linspace(0.0, horizon, num_points, endpoint=False) + step / 2
        values = self.sample(node, metric, times)
        i = int(np.argmax(values))
        t_peak = float(times[i])
        contributors = sorted(
            self.attribution(node, metric, t_peak),
            key=lambda c: c[0],
            reverse=True,
        )
        return {
            "time": t_peak,
            "value": float(values[i]),
            "contributors": contributors,
        }


class RowRecords:
    """Records of ``n`` rows (supersteps), made with array values.

    Each :meth:`record` / :meth:`set_memory` call stands for one call
    per row: times are arrays of ``n`` rows, values and ``span`` are
    given per row (array or sequence) or once for all rows (scalar).
    They are replayed through the trace's own :meth:`ResourceTrace.record`
    and :meth:`ResourceTrace.set_memory`, row ``i`` of every call before
    row ``i + 1`` of any — the calls a loop making them step by step
    would have made, in its order.
    """

    def __init__(self, n: int, fill: _t.Callable[..., None],
                 args: tuple) -> None:
        self.n = n
        self._fill = fill
        self._args = args
        #: (trace method name, node, per-row arguments), in call order
        self._calls: list[tuple] = []

    def record(self, node: str, t0: np.ndarray, t1: np.ndarray, *,
               cpu=0.0, net_in=0.0, net_out=0.0, span=None) -> None:
        """:meth:`ResourceTrace.record` once per row."""
        self._calls.append(("record", node, (t0, t1, cpu, net_in, net_out,
                                             span)))

    def set_memory(self, node: str, t: np.ndarray, nbytes, *,
                   span=None) -> None:
        """:meth:`ResourceTrace.set_memory` once per row."""
        self._calls.append(("set_memory", node, (t, nbytes, span)))

    def _replay(self, trace: ResourceTrace) -> None:
        """Make the records and replay them into ``trace`` row by row."""
        self._fill(self, *self._args)
        self._fill = self._args = None
        calls = [(getattr(trace, method), node,
                  [per_row(x, self.n) for x in args])
                 for method, node, args in self._calls]
        for i in range(self.n):
            for method, node, columns in calls:
                *values, span = (column[i] for column in columns)
                if len(values) == 2:
                    method(node, *values, span=span)
                else:
                    t0, t1, cpu, net_in, net_out = values
                    method(node, t0, t1, cpu=cpu, net_in=net_in,
                           net_out=net_out, span=span)


def per_row(x, n: int) -> list:
    """``x`` given per row (an array or a sequence) or once for all
    ``n`` rows (a scalar), as a list of Python values."""
    if isinstance(x, np.ndarray) and x.ndim:
        return x.tolist()
    if isinstance(x, (list, tuple)):
        return list(x)
    return [x.item() if isinstance(x, np.generic) else x] * n


def normalize_series(values: np.ndarray, num_points: int = 100) -> np.ndarray:
    """Linearly interpolate an arbitrary-length sample vector onto
    ``num_points`` normalized points (the paper's comparison step)."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        return np.zeros(num_points)
    if len(values) == 1:
        return np.full(num_points, values[0])
    x_old = np.linspace(0.0, 1.0, len(values))
    x_new = np.linspace(0.0, 1.0, num_points)
    return np.interp(x_new, x_old, values)
