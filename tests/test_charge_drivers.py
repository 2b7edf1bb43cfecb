"""The two drivers of ``Charge.steps`` charge identical bits.

With ``Charge.arrays`` set (a replayed trace, faults and telemetry off)
a superstep loop is charged as arrays: elementwise sums per row and
one sequential ``np.cumsum`` for the clock and every breakdown entry.
Otherwise each row goes through ``Charge._charge``.  On random
per-row items — extras, duplicate breakdown keys, a masked slowdown,
repeated charges, checkpoints, crash masks and budgets that cross at
any row — both must leave the same clock, breakdown (values and key
order) and superstep count, return the same per-charge windows, and
raise the same exception with the same text.
"""

from __future__ import annotations

import types

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platforms.base import Charge, JobTimeout, PlatformCrash, Rule
from repro.platforms.registry import get_platform

RULES = (
    Rule("work", "compute", "cpu"),
    Rule("flush", "communication", "net"),
    Rule("spill", "communication", "disk"),
    Rule("wait", "barrier"),
)
CHECKPOINT = Rule("checkpoint", "checkpoint", "disk")
seconds = st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False)


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


def _charge(loop: dict, arrays: bool):
    ch = Charge(get_platform("giraph"), loop["limit"])
    ch.arrays = arrays
    ch.t = loop["start"]
    ch.breakdown.update(loop["seed"])
    crash = None
    if loop["crash"] is not None:
        crash = (loop["crash"], lambda i: PlatformCrash(
            "giraph", f"superstep {ch.superstep}", f"row {i}"))
    try:
        charged = ch.steps(
            types.SimpleNamespace(rows=loop["n"]), *loop["items"],
            crash=crash, slowdown=loop["slowdown"],
            checkpoint=loop["checkpoint"], repeat=loop["repeat"],
            budget=loop["budget"],
        )
    except (PlatformCrash, JobTimeout) as exc:
        return ("raised", type(exc).__name__, str(exc), ch.superstep,
                getattr(exc, "simulated_seconds", None))
    windows = [charged.t0, charged.t1, charged.total,
               *(np.broadcast_to(s, charged.t0.shape) for s in charged.seconds)]
    if charged.checkpoint is not None:
        windows += [charged.checkpoint.t0, charged.checkpoint.t1,
                    charged.checkpoint.total]
    return ("ok", ch.t.hex(), ch.superstep, ch.checkpoint_t.hex(),
            [(k, float(v).hex()) for k, v in ch.breakdown.items()],
            [np.asarray(w, dtype=np.float64).tobytes() for w in windows])


@settings(max_examples=200, deadline=None)
@given(loop=loops())
def test_array_driver_matches_row_driver(loop):
    assert _charge(loop, arrays=True) == _charge(loop, arrays=False)
