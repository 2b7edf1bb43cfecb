"""Span-based cost-provenance telemetry (the observability layer).

The paper's analytical instruments — the computation-vs-overhead split
(Figures 15-16) and the per-node resource traces (Figures 5-10) — are
only as trustworthy as the cost rules behind them.  This module makes
every charged simulated second *attributable*: platform models emit a
hierarchy of spans

    job  →  phase  →  superstep  →  cost

ordered monotonically by simulated time, where each **leaf cost span**
carries the exact charged float (``seconds``), the emitting rule name
(e.g. ``"map_cpu"``), the breakdown component it feeds (e.g.
``"compute"``), and whether the paper counts it as computation ``Tc``
or overhead ``To``.  Summing leaf spans therefore reconstructs
``JobResult.execution_time`` and the figure-15/16 split — the property
suite asserts the computation total matches **bit-for-bit** (rule
totals are accumulated in emission order, exactly like the platform
models' own running sums).

Zero-overhead contract: telemetry is **off by default**.  When off,
:func:`active` returns ``None`` and every instrumentation site reduces
to a single ``is None`` check; no object is allocated, no dict is
touched.  The layer is enabled per-run via :func:`enabled` (a context
manager) or :func:`set_enabled`, and :meth:`Platform.run
<repro.platforms.base.Platform.run>` then attaches the finished
:class:`Telemetry` session to ``JobResult.telemetry``.

This module deliberately imports nothing from :mod:`repro` so that any
layer (DES kernel, cluster monitoring, platform models, runner) can
emit into it without import cycles.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import typing as _t

__all__ = [
    "TELEMETRY_SCHEMA",
    "Span",
    "Telemetry",
    "CostBreakdown",
    "active",
    "begin_job",
    "end_job",
    "abandon",
    "enabled",
    "is_enabled",
    "merge_counters",
    "set_enabled",
]


#: version stamped on every JSONL meta/counter record (bump on
#: field-shape changes; shares numbering discipline with
#: ``repro.obs.events.EVENT_SCHEMA`` so one reader can parse both)
TELEMETRY_SCHEMA: int = 1


@dataclasses.dataclass
class Span:
    """One node of the provenance tree.

    ``kind`` is one of ``"job"``, ``"phase"``, ``"superstep"``,
    ``"cost"`` (a charged leaf), or ``"fault"`` (a zero-duration
    injected-fault marker that never contributes to charged totals).
    ``t0``/``t1`` place the span on the simulated
    timeline; ``seconds`` is the *charged* duration — for leaves it is
    the exact float the platform model added to its breakdown, for
    containers it is ``t1 - t0``.
    """

    span_id: int
    parent_id: int | None
    kind: str
    name: str
    t0: float
    t1: float = 0.0
    seconds: float = 0.0
    #: provenance attributes: platform / phase / superstep / rule /
    #: component / computation, plus free-form extras
    attrs: dict[str, _t.Any] = dataclasses.field(default_factory=dict)

    @property
    def is_cost(self) -> bool:
        return self.kind == "cost"

    def to_dict(self) -> dict[str, _t.Any]:
        """JSON-serializable view (one JSONL line)."""
        out: dict[str, _t.Any] = {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "kind": self.kind,
            "name": self.name,
            "t0": self.t0,
            "t1": self.t1,
            "seconds": self.seconds,
        }
        out.update(self.attrs)
        return out


@dataclasses.dataclass
class CostBreakdown:
    """Structured provenance view of one job's charged costs.

    ``components`` mirrors ``JobResult.breakdown`` (same keys, totals
    reconstructed from leaf spans); ``rules`` is the finer per-rule
    split; ``computation``/``overhead`` reproduce the paper's
    ``Tc``/``To`` (Figures 15-16).
    """

    total: float
    computation: float
    overhead: float
    components: dict[str, float]
    rules: dict[str, float]


class Telemetry:
    """One recording session: the span tree plus counters/gauges for a
    single platform run.

    Spans are appended in emission order (monotone in simulated time),
    so post-hoc aggregations that re-add their ``seconds`` reproduce
    the platform models' running sums bit-for-bit.
    """

    def __init__(self, **attrs: _t.Any) -> None:
        self.attrs: dict[str, _t.Any] = dict(attrs)
        #: pid of the recording process — sweep workers record sessions
        #: in their own processes, and the merged JSONL keeps saying so
        self.worker_id: int = os.getpid()
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self._stack: list[int] = []
        job = Span(
            span_id=0, parent_id=None, kind="job",
            name="/".join(str(v) for v in attrs.values()) or "job",
            t0=0.0, attrs=dict(attrs),
        )
        self.spans.append(job)
        self._stack.append(0)

    # -- span emission -----------------------------------------------------
    def begin_span(self, kind: str, name: str, t0: float, **attrs: _t.Any) -> int:
        """Open a container span under the current top of stack."""
        sid = len(self.spans)
        self.spans.append(
            Span(span_id=sid, parent_id=self._stack[-1], kind=kind,
                 name=name, t0=float(t0), attrs=attrs)
        )
        self._stack.append(sid)
        return sid

    def end_span(self, t1: float) -> None:
        """Close the innermost open container span at simulated ``t1``."""
        if len(self._stack) <= 1:
            raise RuntimeError("no open span to end (job span closes via finish)")
        sid = self._stack.pop()
        span = self.spans[sid]
        span.t1 = float(t1)
        span.seconds = span.t1 - span.t0

    def cost(
        self,
        rule: str,
        t0: float,
        seconds: float,
        *,
        component: str,
        computation: bool = False,
        superstep: int | None = None,
        **attrs: _t.Any,
    ) -> int:
        """Emit a leaf cost span: ``seconds`` charged by ``rule`` into
        breakdown ``component`` starting at simulated ``t0``.

        Returns the span id (usable as a `ResourceTrace` attribution).
        """
        sid = len(self.spans)
        a: dict[str, _t.Any] = {
            "rule": rule,
            "component": component,
            "computation": computation,
        }
        if superstep is not None:
            a["superstep"] = superstep
        if attrs:
            a.update(attrs)
        self.spans.append(
            Span(span_id=sid, parent_id=self._stack[-1], kind="cost",
                 name=rule, t0=float(t0), t1=float(t0) + float(seconds),
                 seconds=float(seconds), attrs=a)
        )
        return sid

    def fault(
        self,
        kind: str,
        t: float,
        *,
        node: int = 0,
        recovery: str = "",
        **attrs: _t.Any,
    ) -> int:
        """Emit a zero-duration fault marker span: an injected fault of
        ``kind`` perturbed the run at simulated ``t`` and the platform
        answered with ``recovery`` (e.g. ``"task_retry"``,
        ``"job_restart"``).  Markers carry no charged seconds — the
        recovery *cost* is a separate :meth:`cost` span — so charged
        totals stay reconstructible from cost leaves alone.
        """
        sid = len(self.spans)
        a: dict[str, _t.Any] = {"fault_kind": kind, "node": node}
        if recovery:
            a["recovery"] = recovery
        if attrs:
            a.update(attrs)
        self.spans.append(
            Span(span_id=sid, parent_id=self._stack[-1], kind="fault",
                 name=kind, t0=float(t), t1=float(t), seconds=0.0, attrs=a)
        )
        return sid

    def fault_spans(self) -> list[Span]:
        """The injected-fault markers, in emission order."""
        return [s for s in self.spans if s.kind == "fault"]

    def finish(self, t_end: float) -> None:
        """Close any open containers and the job span at ``t_end``."""
        while len(self._stack) > 1:
            self.end_span(t_end)
        job = self.spans[0]
        job.t1 = float(t_end)
        job.seconds = job.t1 - job.t0
        self._stack.clear()

    # -- counters / gauges -------------------------------------------------
    def count(self, name: str, delta: float = 1.0) -> None:
        """Increment a named counter."""
        self.counters[name] = self.counters.get(name, 0.0) + delta

    def gauge(self, name: str, value: float) -> None:
        """Record the latest value of a named gauge."""
        self.gauges[name] = float(value)

    # -- queries -----------------------------------------------------------
    def leaf_spans(self) -> list[Span]:
        """The cost leaves, in emission (= simulated time) order."""
        return [s for s in self.spans if s.is_cost]

    def leaf_total(self) -> float:
        """Sum of charged leaf durations, in emission order."""
        total = 0.0
        for s in self.spans:
            if s.is_cost:
                total += s.seconds
        return total

    def rule_totals(self) -> dict[str, float]:
        """Charged seconds per rule, accumulated in emission order —
        the same addition sequence as the platform models' own running
        sums, so single-rule totals are bit-identical to theirs."""
        totals: dict[str, float] = {}
        for s in self.spans:
            if s.is_cost:
                totals[s.name] = totals.get(s.name, 0.0) + s.seconds
        return totals

    def _rule_meta(self) -> dict[str, tuple[str, bool]]:
        meta: dict[str, tuple[str, bool]] = {}
        for s in self.spans:
            if s.is_cost and s.name not in meta:
                meta[s.name] = (
                    str(s.attrs.get("component", s.name)),
                    bool(s.attrs.get("computation", False)),
                )
        return meta

    def component_totals(self) -> dict[str, float]:
        """Charged seconds per breakdown component (rule totals folded
        in first-emission rule order)."""
        meta = self._rule_meta()
        out: dict[str, float] = {}
        for rule, total in self.rule_totals().items():
            component = meta[rule][0]
            out[component] = out.get(component, 0.0) + total
        return out

    def computation_seconds(self) -> float:
        """The paper's ``Tc`` from spans: rule totals flagged
        ``computation``, added in first-emission rule order (matches
        the models' ``x_total + y_total`` expressions bit-for-bit)."""
        meta = self._rule_meta()
        total = 0.0
        for rule, t in self.rule_totals().items():
            if meta[rule][1]:
                total += t
        return total

    def top_rules(self, k: int = 10) -> list[tuple[str, float]]:
        """The ``k`` most expensive cost rules, descending."""
        return sorted(
            self.rule_totals().items(), key=lambda kv: kv[1], reverse=True
        )[:k]

    def span(self, span_id: int) -> Span:
        """Look a span up by id."""
        return self.spans[span_id]

    def children(self, span_id: int) -> list[Span]:
        """Direct children of a span, in emission order."""
        return [s for s in self.spans if s.parent_id == span_id]

    def to_jsonl_dicts(self) -> _t.Iterator[dict[str, _t.Any]]:
        """All session records as JSONL-ready dicts: a meta line, every
        span, then counters and gauges.

        The meta line carries ``schema`` (:data:`TELEMETRY_SCHEMA`) and
        the recording process's ``worker_id``; counter and gauge lines
        repeat ``worker_id`` so rows stay attributable after several
        sessions are merged into one file — the same provenance fields
        harness events (:mod:`repro.obs.events`) carry, so one reader
        parses both streams.
        """
        yield {
            "type": "meta",
            "schema": TELEMETRY_SCHEMA,
            "worker_id": self.worker_id,
            **self.attrs,
        }
        for s in self.spans:
            yield s.to_dict()
        for name, value in sorted(self.counters.items()):
            yield {
                "type": "counter", "name": name, "value": value,
                "worker_id": self.worker_id,
            }
        for name, value in sorted(self.gauges.items()):
            yield {
                "type": "gauge", "name": name, "value": value,
                "worker_id": self.worker_id,
            }


def merge_counters(sessions: _t.Iterable["Telemetry"]) -> dict[str, float]:
    """Summed counter totals over several sessions.

    Sweeps record one session per cell (possibly in different worker
    processes); this is the grid-level aggregation the sweep exporter
    and the ``graphbench sweep`` CLI report.
    """
    totals: dict[str, float] = {}
    for session in sessions:
        for name, value in session.counters.items():
            totals[name] = totals.get(name, 0.0) + value
    return totals


# -- module-global session management ---------------------------------------
#
# A single ambient session: `Platform.run` begins one per run when the
# layer is enabled, every instrumentation site reads `active()`, and the
# finished session lands on `JobResult.telemetry`.  Platform runs never
# nest, so one slot suffices (nested `begin_job` keeps the outer session).

_enabled: bool = False
_active: Telemetry | None = None


def is_enabled() -> bool:
    """Whether new platform runs will record telemetry."""
    return _enabled


def set_enabled(on: bool) -> bool:
    """Enable/disable recording for subsequent runs; returns the
    previous setting."""
    global _enabled
    prev = _enabled
    _enabled = bool(on)
    return prev


@contextlib.contextmanager
def enabled(on: bool = True) -> _t.Iterator[None]:
    """Context manager toggling telemetry recording."""
    prev = set_enabled(on)
    try:
        yield
    finally:
        set_enabled(prev)


def active() -> Telemetry | None:
    """The session currently recording, or ``None`` (the fast path —
    instrumentation sites guard on this single check)."""
    return _active


def begin_job(**attrs: _t.Any) -> Telemetry | None:
    """Start a session for one platform run (``None`` when disabled or
    when a session is already recording)."""
    global _active
    if not _enabled or _active is not None:
        return None
    _active = Telemetry(**attrs)
    return _active


def end_job(session: Telemetry, t_end: float) -> None:
    """Finish ``session`` at simulated ``t_end`` and release the slot."""
    global _active
    session.finish(t_end)
    if _active is session:
        _active = None


def abandon(session: Telemetry | None) -> None:
    """Release the slot without finishing (crash/timeout paths)."""
    global _active
    if session is not None and _active is session:
        _active = None
