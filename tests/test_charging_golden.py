"""Golden digests of every charged output of the five platform engines.

One sha256 per cell covers what a platform run charges: the status or
exception text, ``T`` and ``Tc`` as exact float hex, the breakdown in
key order, the superstep count, every resource-trace interval and
memory event with its span id, the telemetry session's JSONL records,
and the fault-accounting counters.  The grid is every platform model x
{bfs, conn, cd, stats, evo} x two tiny datasets x three fault plans
(none, one crash, a seeded storm), the Giraph and Hadoop option
variants, and the one Stratosphere cell that spills and still finishes.
Every golden cell records telemetry, which ``Charge.steps`` emits
after charging the rows as arrays; the telemetry-off twin of each
``none`` cell goes through the same driver and must match it in
everything but the telemetry records.

Regenerate after an intended change to the cost models with::

    PYTHONPATH=src python tests/test_charging_golden.py

and list every changed cell in CHANGES.md.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib

import pytest

from repro.algorithms.base import get_algorithm, record_trace
from repro.core import telemetry
from repro.datasets import load_dataset
from repro.des.faults import FaultPlan, named_plan
from repro.platforms.base import JobTimeout, PlatformCrash
from repro.platforms.giraph import Giraph
from repro.platforms.hadoop import Hadoop
from repro.platforms.registry import get_platform

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "charging.json"

ALGORITHMS = ("bfs", "conn", "cd", "stats", "evo")
DATASETS = (("amazon", "tiny"), ("dotaleague", "tiny"))
PLANS = ("none", "crash", "storm")
#: the Stratosphere cell whose operators spill and which still finishes
SPILL_CELLS = (("stratosphere", "stats", "synth", "xs"),)


class _NoPins(Hadoop):
    """Hadoop with block-driven map tasks scheduled in waves."""

    pin_blocks_to_slots = False


#: model name -> (factory, run keywords)
MODELS = {
    "hadoop": (lambda: get_platform("hadoop"), {}),
    "yarn": (lambda: get_platform("yarn"), {}),
    "stratosphere": (lambda: get_platform("stratosphere"), {}),
    "giraph": (lambda: get_platform("giraph"), {}),
    "graphlab": (lambda: get_platform("graphlab"), {}),
    "graphlab_mp": (lambda: get_platform("graphlab_mp"), {}),
    "neo4j_hot": (lambda: get_platform("neo4j"), {"cache": "hot"}),
    "neo4j_cold": (lambda: get_platform("neo4j"), {"cache": "cold"}),
    "giraph_ckpt": (lambda: Giraph(checkpoint_interval=2), {}),
    "giraph_ooc": (lambda: Giraph(out_of_core=True), {}),
    "giraph_combiner": (lambda: Giraph(use_combiner=True), {}),
    "hadoop_waves": (_NoPins, {}),
}


@functools.lru_cache(maxsize=None)
def _graph_and_trace(algorithm: str, dataset: str, scale: str):
    graph = load_dataset(dataset, scale=scale)
    algo = get_algorithm(algorithm)
    program = algo.program(graph, **algo.default_params(graph))
    return algo, graph, record_trace(program, graph, algorithm=algo.name)


def _plan(name: str, horizon: float) -> FaultPlan | None:
    if name == "none":
        return None
    if name == "crash":
        return named_plan("crash", at=0.5 * horizon, node=3)
    return FaultPlan.seeded(11, horizon, num_faults=6)


@functools.lru_cache(maxsize=None)
def run_cell(model: str, algorithm: str, dataset: str, scale: str,
             plan: str):
    """One cell's outcome: a ``JobResult`` or the raised failure."""
    factory, kwargs = MODELS[model]
    algo, graph, trace = _graph_and_trace(algorithm, dataset, scale)

    def run(fault_plan):
        with telemetry.enabled():
            try:
                return factory().run(algo, graph, trace=trace,
                                     fault_plan=fault_plan, **kwargs)
            except (PlatformCrash, JobTimeout) as exc:
                return exc

    baseline = run(None)
    if plan == "none":
        return baseline
    horizon = (
        baseline.execution_time if not isinstance(baseline, Exception)
        else 3600.0
    )
    return run(_plan(plan, horizon))


@functools.lru_cache(maxsize=None)
def run_untelemetered(model: str, algorithm: str, dataset: str, scale: str):
    """A ``none``-plan cell with telemetry off: the array-charged run."""
    factory, kwargs = MODELS[model]
    algo, graph, trace = _graph_and_trace(algorithm, dataset, scale)
    with telemetry.enabled(False):
        try:
            return factory().run(algo, graph, trace=trace, **kwargs)
        except (PlatformCrash, JobTimeout) as exc:
            return exc


def digest(outcome, *, telemetry_records: bool = True) -> str:
    """sha256 over every charged output of one run; without
    ``telemetry_records`` the telemetry session and the span ids on
    trace records are left out."""
    h = hashlib.sha256()

    def put(*items) -> None:
        h.update(repr(items).encode())
        h.update(b"\n")

    if isinstance(outcome, Exception):
        put("error", type(outcome).__name__, str(outcome))
        return h.hexdigest()
    r = outcome
    put("ok", r.execution_time.hex(), r.computation_time.hex(), r.supersteps)
    put([(k, float(v).hex()) for k, v in r.breakdown.items()])
    trace = r.trace
    put(trace.end_time.hex())
    def span_id(span):
        return span if telemetry_records else None

    for node in trace.nodes():
        for metric in trace.INTERVAL_METRICS:
            intervals = trace.intervals(node, metric)
            if intervals:
                put((node, metric),
                    [(t0.hex(), t1.hex(), float(value).hex(), span_id(span))
                     for t0, t1, value, span in intervals])
    for node in trace.nodes():
        events = trace.memory_events(node)
        if events:
            put(node, [(float(t).hex(), v.hex(), span_id(span))
                       for t, v, span in events])
    if r.telemetry is not None and telemetry_records:
        for record in r.telemetry.to_jsonl_dicts():
            record = {k: v for k, v in record.items() if k != "worker_id"}
            put(json.dumps(record, sort_keys=True))
    put(r.task_retries, r.speculative_tasks, r.job_restarts,
        r.recovery_seconds.hex(), r.faults_injected, r.fault_plan)
    return h.hexdigest()


def cells() -> list[tuple[str, str, str, str, str]]:
    grid = [
        (model, algorithm, dataset, scale, plan)
        for model in MODELS
        for algorithm in ALGORITHMS
        for dataset, scale in DATASETS
        for plan in PLANS
    ]
    grid += [
        (model, algorithm, dataset, scale, plan)
        for model, algorithm, dataset, scale in SPILL_CELLS
        for plan in PLANS
    ]
    return grid


def cell_id(cell) -> str:
    return "/".join(cell)


def compute_golden() -> dict[str, str]:
    return {cell_id(c): digest(run_cell(*c)) for c in cells()}


def test_charged_outputs_match_golden():
    golden = json.loads(GOLDEN.read_text())
    actual = compute_golden()
    assert sorted(actual) == sorted(golden)
    changed = sorted(k for k in golden if golden[k] != actual[k])
    assert not changed, f"{len(changed)} cells changed: {changed[:20]}"


@pytest.mark.parametrize("model", list(MODELS))
def test_untelemetered_twin_matches(model):
    """With telemetry off a replayed trace is charged as arrays; every
    charged output but the telemetry records equals the row-by-row
    charge of the telemetry-on run."""
    differ = []
    for cell in cells():
        if cell[0] != model or cell[4] != "none":
            continue
        on = digest(run_cell(*cell), telemetry_records=False)
        off = digest(run_untelemetered(*cell[:4]), telemetry_records=False)
        if on != off:
            differ.append(cell_id(cell))
    assert not differ, differ


@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("model", list(MODELS))
def test_charged_time_is_conserved(model, plan):
    """T is what the clock charged: the telemetry leaves and the
    resource trace's extent both add up to ``execution_time``."""
    leaks = []
    for cell in cells():
        if cell[0] != model or cell[4] != plan:
            continue
        r = run_cell(*cell)
        if isinstance(r, Exception):
            continue
        total = r.execution_time
        for name, value in (
            ("leaf_total", r.telemetry.leaf_total()),
            ("trace_end", r.trace.end_time),
        ):
            if abs(value - total) > 1e-9 * total:
                leaks.append(f"{cell_id(cell)}: {name} {value!r} != T {total!r}")
    assert not leaks, leaks


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute_golden(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
