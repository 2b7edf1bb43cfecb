"""``Charge.steps`` charges a table of rows the way its rows charge alone.

``Charge.steps`` has one driver: the rows of a table are charged as
arrays, elementwise sums per row and one sequential ``np.cumsum`` for
the clock and every breakdown entry, with telemetry emitted afterwards
from the charged windows; under a fault plan the rows a fault event
may touch are walked through ``Charge._charge`` one at a time.  So
charging a table in one call must equal charging its rows as
consecutive one-row calls.  On random per-row items — extras,
duplicate breakdown keys, a masked slowdown, repeated charges,
checkpoints, crash masks, budgets that cross at any row and random
fault plans — both must leave the same clock, breakdown (values and
key order), superstep count, checkpoint barrier and fault accounting,
return the same per-charge windows, raise the same exception with the
same text, and with telemetry on emit the same span records.

The walk is bounded by the fault events, not by the supersteps: on a
replay of 57 supersteps a crash after the job's end walks no row, and
one mid-loop crash walks only the row whose window holds it.
"""

from __future__ import annotations

import json
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import get_algorithm, record_trace
from repro.core import telemetry
from repro.datasets import load_dataset
from repro.des.faults import Fault, FaultInjector, FaultKind, FaultPlan, named_plan
from repro.platforms.base import Charge, JobTimeout, PlatformCrash, Rule
from repro.platforms.giraph import Giraph
from repro.platforms.registry import get_platform

RULES = (
    Rule("work", "compute", "cpu"),
    Rule("flush", "communication", "net"),
    Rule("spill", "communication", "disk"),
    Rule("wait", "barrier"),
)
CHECKPOINT = Rule("checkpoint", "checkpoint", "disk")
seconds = st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False)

#: platforms by recovery family: checkpoint restart and per-task retry
PLATFORMS = {
    "giraph": lambda: Giraph(checkpoint_interval=2),
    "hadoop": lambda: get_platform("hadoop"),
}
faults = st.builds(
    Fault,
    kind=st.sampled_from([FaultKind.NODE_CRASH, FaultKind.STRAGGLER,
                          FaultKind.DISK_DEGRADE, FaultKind.LINK_PARTITION]),
    at=st.floats(0.0, 2000.0),
    node=st.integers(0, 19),
    duration=st.floats(0.0, 300.0),
    severity=st.floats(1.0, 4.0),
)


@st.composite
def loops(draw):
    n = draw(st.integers(1, 6))
    column = st.one_of(seconds, st.lists(seconds, min_size=n, max_size=n))
    mask = st.lists(st.booleans(), min_size=n, max_size=n).map(np.array)

    def values(v):
        return np.array(v) if isinstance(v, list) else v

    items = []
    for rule in draw(st.lists(st.sampled_from(RULES), min_size=1,
                              max_size=4)):
        item = (rule, values(draw(column)))
        if draw(st.booleans()):
            item += (values(draw(column)), {"row": np.arange(n)})
        items.append(tuple(item))
    return {
        "n": n,
        "items": items,
        "crash": draw(st.none() | mask),
        "slowdown": draw(st.none() | st.tuples(
            st.just("spill_gc"), st.floats(1.0, 5.0), mask)),
        "checkpoint": draw(st.none() | st.tuples(
            st.just(CHECKPOINT), st.lists(seconds, min_size=n, max_size=n)
            .map(np.array), mask)),
        "repeat": draw(st.integers(1, 2)),
        "budget": draw(st.booleans()),
        "limit": draw(st.floats(0.0, 1500.0)),
        "start": draw(seconds),
        "seed": draw(st.sampled_from([{}, {"compute": 7.25, "barrier": 0.5}])),
    }


@st.composite
def runs(draw, tele: bool):
    platform = draw(st.sampled_from(sorted(PLATFORMS)))
    return {
        "platform": platform,
        "plan": FaultPlan(tuple(draw(st.lists(faults, max_size=3)))),
        # MapReduce re-runs the tasks of crashed nodes inside a charge
        "retry": (2.0, 4) if platform == "hadoop" else None,
        "tele": tele,
        "body": draw(st.booleans()),
    }


def _rows(x, lo: int, hi: int):
    return x[lo:hi] if isinstance(x, np.ndarray) else x


def _cut(loop: dict, lo: int, hi: int) -> dict:
    """The keywords charging rows ``lo:hi`` of ``loop``."""
    items = []
    for item in loop["items"]:
        cut = (item[0], *(_rows(v, lo, hi) for v in item[1:3]))
        if len(item) > 3:
            cut += ({k: v[lo:hi] for k, v in item[3].items()},)
        items.append(cut)
    kwargs = {"repeat": loop["repeat"], "budget": loop["budget"]}
    if loop["slowdown"] is not None:
        rule, factor, mask = loop["slowdown"]
        kwargs["slowdown"] = (rule, factor, mask[lo:hi])
    if loop["checkpoint"] is not None:
        rule, ck, mask = loop["checkpoint"]
        kwargs["checkpoint"] = (rule, ck[lo:hi], mask[lo:hi])
    return {"rows": hi - lo, "items": items, "kwargs": kwargs}


def _charge(loop: dict, run: dict, tables: list[tuple[int, int]]):
    """Charge ``loop`` as the consecutive ``tables`` (row ranges): every
    charged output, or the raised exception."""
    plan = run["plan"]
    injector = None if plan.is_empty else FaultInjector(plan, num_workers=20)
    session = telemetry.Telemetry() if run["tele"] else None
    ch = Charge(PLATFORMS[run["platform"]](), loop["limit"], injector, session)
    ch._in_loop, ch._body_span = True, run["body"]
    ch.t = loop["start"]
    ch.breakdown.update(loop["seed"])
    pieces = []
    try:
        for lo, hi in tables:
            cut = _cut(loop, lo, hi)
            crash = None
            if loop["crash"] is not None:
                crash = (loop["crash"][lo:hi],
                         lambda i, lo=lo: PlatformCrash(
                             "giraph", f"superstep {ch.superstep}",
                             f"row {lo + i}"))
            pieces.append(ch.steps(
                types.SimpleNamespace(rows=cut["rows"]), *cut["items"],
                crash=crash, retry=run["retry"], **cut["kwargs"]))
    except (PlatformCrash, JobTimeout) as exc:
        return ("raised", type(exc).__name__, str(exc), ch.superstep)

    def column(values) -> bytes:
        return np.concatenate(values, dtype=np.float64).tobytes()

    windows = [column([p.t0 for p in pieces]), column([p.t1 for p in pieces]),
               column([p.total for p in pieces])]
    windows += [column([np.broadcast_to(p.seconds[j], p.t0.shape)
                        for p in pieces])
                for j in range(len(loop["items"]))]
    if loop["checkpoint"] is not None:
        windows += [column([getattr(p.checkpoint, f) for p in pieces])
                    for f in ("t0", "t1", "total")]
    outcome = ["ok", ch.t.hex(), ch.superstep, ch.checkpoint_t.hex(),
               ch.recovery_total.hex(),
               [(k, float(v).hex()) for k, v in ch.breakdown.items()],
               windows]
    if injector is not None:
        outcome.append((injector.task_retries, injector.job_restarts,
                        injector.speculative_tasks, injector.faults_fired,
                        injector.recovery_seconds.hex()))
    if session is not None:
        outcome.append([sum((list(p.spans[j]) for p in pieces), [])
                        for j in range(len(loop["items"]))])
        if loop["checkpoint"] is not None:
            outcome.append(sum((list(p.checkpoint.spans[0]) for p in pieces),
                               []))
        outcome.append([json.dumps(s.to_dict(), sort_keys=True)
                        for s in session.spans])
    return outcome


def _one_call_and_row_calls(loop: dict, run: dict):
    n = loop["n"]
    return (_charge(loop, run, [(0, n)]),
            _charge(loop, run, [(i, i + 1) for i in range(n)]))


@settings(max_examples=200, deadline=None)
@given(loop=loops(), run=runs(tele=False))
def test_table_charges_like_its_rows(loop, run):
    one, rows = _one_call_and_row_calls(loop, run)
    assert one == rows


@settings(max_examples=200, deadline=None)
@given(loop=loops(), run=runs(tele=True))
def test_table_charges_like_its_rows_with_telemetry(loop, run):
    one, rows = _one_call_and_row_calls(loop, run)
    assert one == rows


# -- rows walked ----------------------------------------------------------

@pytest.fixture(scope="module")
def replay():
    """amazon@tiny CONN: a 57-superstep trace."""
    graph = load_dataset("amazon", scale="tiny")
    algo = get_algorithm("conn")
    trace = record_trace(algo.program(graph, **algo.default_params(graph)),
                         graph, algorithm=algo.name)
    return algo, graph, trace


def _walked(monkeypatch, platform, replay, plan):
    """Run ``replay`` with telemetry; returns the result and the
    supersteps whose rows ``Charge.steps`` charged through ``_charge``."""
    steps, charge = Charge.steps, Charge._charge
    inside, walked = [], []

    def counted_steps(self, *args, **kwargs):
        inside.append(True)
        try:
            return steps(self, *args, **kwargs)
        finally:
            inside.pop()

    def counted_charge(self, *args, **kwargs):
        if inside:
            walked.append(self.superstep)
        return charge(self, *args, **kwargs)

    monkeypatch.setattr(Charge, "steps", counted_steps)
    monkeypatch.setattr(Charge, "_charge", counted_charge)
    algo, graph, trace = replay
    with telemetry.enabled():
        result = platform.run(algo, graph, trace=trace, fault_plan=plan)
    monkeypatch.undo()
    return result, sorted(set(walked))


@pytest.mark.parametrize("platform", [lambda: Giraph(checkpoint_interval=2),
                                      lambda: get_platform("hadoop")],
                         ids=["giraph_ckpt", "hadoop"])
def test_rows_walked_are_bounded_by_fault_events(monkeypatch, replay,
                                                 platform):
    base, walked = _walked(monkeypatch, platform(), replay, None)
    assert base.supersteps >= 20 and walked == []

    late = named_plan("crash", at=2.0 * base.execution_time, node=3)
    after, walked = _walked(monkeypatch, platform(), replay, late)
    assert walked == []
    assert after.execution_time.hex() == base.execution_time.hex()
    assert ([(k, v.hex()) for k, v in after.breakdown.items()]
            == [(k, v.hex()) for k, v in base.breakdown.items()])

    # a crash halfway through superstep 10's window
    step = next(s for s in base.telemetry.spans
                if s.kind == "superstep" and s.attrs["superstep"] == 10)
    mid = named_plan("crash", at=0.5 * (step.t0 + step.t1), node=3)
    faulted, walked = _walked(monkeypatch, platform(), replay, mid)
    assert walked == [10]
    assert faulted.job_restarts + faulted.task_retries == 1
    assert faulted.execution_time > base.execution_time
