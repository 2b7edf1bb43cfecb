"""RunSpec/SweepSpec API, per-cell seeding, and the parallel sweep
executor.

The contract under test (paper Section 3.2: every grid cell is an
independent experiment):

* specs are frozen values — hashable, picklable, order-normalized;
* jitter streams derive from ``(seed, cell identity)``, never from
  grid position, so reordered and parallel grids reproduce serial
  results bit-for-bit;
* grids are passed as a SweepSpec only — loose grid keywords are a
  ``TypeError``;
* worker-process sweeps merge trace-cache counters and telemetry back
  into the parent.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.core import telemetry
from repro.core.results import ExperimentResult, RunStatus
from repro.core.runner import Runner
from repro.core.spec import RunSpec, SweepSpec, derive_cell_seed
from repro.core.trace_cache import TraceCache
from repro.des.faults import named_plan
from repro.platforms.registry import PLATFORM_NAMES

#: a cheap 2x1x2 grid used throughout (small mini-scale datasets)
GRID = SweepSpec.make(
    "test:grid",
    platforms=("giraph", "graphlab"),
    algorithms=("bfs",),
    datasets=("amazon", "wikitalk"),
)


#: the ``JobResult`` fields that account for injected faults
FAULT_FIELDS = ("fault_plan", "task_retries", "speculative_tasks",
                "job_restarts", "recovery_seconds", "faults_injected")


def _faults(record) -> list | None:
    return record.result and [getattr(record.result, f) for f in FAULT_FIELDS]


def records_equal(a, b) -> bool:
    """Bit-identity of the fields the paper reports."""
    return (
        a.platform == b.platform
        and a.algorithm == b.algorithm
        and a.dataset == b.dataset
        and a.status == b.status
        and a.execution_time == b.execution_time
        and a.repetition_times == b.repetition_times
        and a.failure_reason == b.failure_reason
        and _faults(a) == _faults(b)
    )


class TestRunSpec:
    def test_frozen_hashable_and_order_normalized(self):
        a = RunSpec.make("Giraph", "BFS", "Amazon", max_steps=5, combiner=True)
        b = RunSpec.make("giraph", "bfs", "amazon", combiner=True, max_steps=5)
        assert a == b
        assert hash(a) == hash(b)
        assert a.params_dict() == {"max_steps": 5, "combiner": True}
        import dataclasses

        with pytest.raises(dataclasses.FrozenInstanceError):
            a.platform = "hadoop"  # type: ignore[misc]

    def test_picklable(self):
        spec = RunSpec.make("giraph", "bfs", "amazon", max_steps=3)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.cell_key() == spec.cell_key()

    def test_cell_key_ignores_object_identity(self, random_graph):
        named = RunSpec("giraph", "bfs", "amazon")
        adhoc = RunSpec("giraph", "bfs", random_graph)
        assert named.is_named
        assert not adhoc.is_named
        assert adhoc.dataset_name == random_graph.name

    def test_sweep_cells_canonical_order(self):
        cells = list(GRID.cells())
        assert len(cells) == len(GRID) == 4
        # algorithm-major, then dataset, then platform
        assert [(c.algorithm, c.dataset, c.platform) for c in cells] == [
            ("bfs", "amazon", "giraph"),
            ("bfs", "amazon", "graphlab"),
            ("bfs", "wikitalk", "giraph"),
            ("bfs", "wikitalk", "graphlab"),
        ]

    def test_sweep_validates_workers(self):
        with pytest.raises(ValueError):
            SweepSpec.make(
                "bad", platforms=("giraph",), algorithms=("bfs",),
                datasets=("amazon",), workers=0,
            )


class TestCellSeed:
    def test_seed_is_pure_function_of_identity(self):
        a = RunSpec("giraph", "bfs", "amazon")
        b = RunSpec("giraph", "bfs", "amazon")
        c = RunSpec("graphlab", "bfs", "amazon")
        assert derive_cell_seed(202, a) == derive_cell_seed(202, b)
        assert derive_cell_seed(202, a) != derive_cell_seed(202, c)
        assert derive_cell_seed(202, a) != derive_cell_seed(203, a)

    def test_explicit_seed_wins(self):
        spec = RunSpec("giraph", "bfs", "amazon", seed=77)
        assert derive_cell_seed(202, spec) == 77

    def test_jitter_independent_of_grid_order(self):
        """Regression: cells used to share one RNG, so reordering the
        grid changed every jittered measurement."""
        forward = GRID
        backward = SweepSpec.make(
            "test:grid-reversed",
            platforms=tuple(reversed(GRID.platforms)),
            algorithms=GRID.algorithms,
            datasets=tuple(reversed(GRID.datasets)),
        )
        exp_f = Runner(jitter=0.03, repetitions=3).run_grid(forward)
        exp_b = Runner(jitter=0.03, repetitions=3).run_grid(backward)
        for rec in exp_f:
            twin = exp_b.get(rec.platform, rec.algorithm, rec.dataset)
            assert twin is not None
            assert records_equal(rec, twin), (
                f"grid order changed jittered results for "
                f"{rec.platform}/{rec.algorithm}/{rec.dataset}"
            )

    def test_jittered_repetitions_differ_within_cell(self):
        rec = Runner(jitter=0.03, repetitions=4).run(
            RunSpec("giraph", "bfs", "amazon")
        )
        assert len(set(rec.repetition_times)) > 1


class TestDeprecationShims:
    """The loose-kwargs grid form is gone: the grid lives in the
    SweepSpec only."""

    def test_sweepspec_rejects_extra_grid_kwargs(self):
        with pytest.raises(TypeError):
            Runner().run_grid(GRID, platforms=["giraph"])


class TestParallelSweep:
    @pytest.mark.parametrize("jitter", [0.0, 0.03])
    @pytest.mark.parametrize("faulted", [False, True])
    def test_workers_bit_identical_to_serial(self, jitter, faulted):
        plan = (
            named_plan("straggler", at=2.0, node=0, duration=3.0,
                       severity=None)
            if faulted
            else None
        )
        sweep = SweepSpec.make(
            "test:parallel",
            platforms=GRID.platforms,
            algorithms=GRID.algorithms,
            datasets=GRID.datasets,
            fault_plan=plan,
        )
        serial = Runner(jitter=jitter, repetitions=3).run_grid(
            sweep, workers=1
        )
        for workers in (2, 4):
            parallel = Runner(jitter=jitter, repetitions=3).run_grid(
                sweep, workers=workers
            )
            assert len(parallel) == len(serial)
            for a, b in zip(serial, parallel):
                assert records_equal(a, b), (
                    f"workers={workers} diverged on "
                    f"{a.platform}/{a.algorithm}/{a.dataset}"
                )

    def test_record_order_is_canonical(self):
        exp = Runner().run_grid(GRID, workers=2)
        got = [(r.algorithm, r.dataset, r.platform) for r in exp]
        want = [
            (c.algorithm, c.dataset, c.platform) for c in GRID.cells()
        ]
        assert got == want

    def test_counter_merge_accounts_every_cell(self):
        runner = Runner()
        exp = runner.run_grid(GRID, workers=2)
        assert all(r.status is RunStatus.OK for r in exp)
        cache = runner.trace_cache
        # every worker-side lookup was folded back into the parent
        assert cache.hits + cache.misses == len(GRID)
        # the 2 distinct (algorithm, dataset) workloads were published
        # to the spill directory and crossed a process boundary at
        # least once
        assert cache.disk_stores >= 2
        assert cache.record_seconds > 0
        stats = runner.cache_stats()
        assert stats["disk_hits"] == cache.disk_hits
        assert stats["disk_stores"] == cache.disk_stores

    def test_parent_cache_warm_after_parallel_sweep(self):
        runner = Runner()
        runner.run_grid(GRID, workers=2)
        before = runner.trace_cache.misses
        runner.run(RunSpec("neo4j", "bfs", "amazon"))
        assert runner.trace_cache.misses == before

    def test_adhoc_cells_cannot_be_dispatched(self, random_graph):
        from repro.core.sweep import run_sweep

        sweep = SweepSpec.make(
            "test:adhoc", platforms=("giraph",), algorithms=("bfs",),
            datasets=("amazon",),
        )
        specs = [RunSpec("giraph", "bfs", random_graph)]
        runner = Runner()

        class _FakeSweep:
            name = "fake"
            datasets = ()

            def cells(self):
                return iter(specs)

        with pytest.raises(ValueError):
            run_sweep(runner, _FakeSweep(), workers=2)  # type: ignore[arg-type]
        # the public surface refuses too: ad-hoc datasets cannot appear
        # in a SweepSpec at all (names only), so run_grid stays safe
        assert all(spec.is_named for spec in sweep.cells())

    def test_spill_dir_shares_recordings_across_runners(self, tmp_path):
        spill = tmp_path / "traces"
        spill.mkdir()
        first = Runner(trace_cache=TraceCache(spill_dir=spill))
        first.run_grid(GRID, workers=2)
        assert list(spill.glob("*.trace.pkl"))

        second = Runner(trace_cache=TraceCache(spill_dir=spill))
        second.run(RunSpec("giraph", "bfs", "amazon"))
        assert second.trace_cache.misses == 0
        assert second.trace_cache.disk_hits == 1

    def test_telemetry_sessions_survive_worker_roundtrip(self):
        runner = Runner()
        with telemetry.enabled():
            exp = runner.run_grid(GRID, workers=2)
        sessions = [r.result.telemetry for r in exp if r.result is not None]
        assert len(sessions) == len(GRID)
        assert all(s is not None for s in sessions)
        # each session carries its full provenance tree back across the
        # process boundary: a root job span plus cost spans below it
        for session in sessions:
            assert session.span(0).kind == "job"
            assert len(list(session.to_jsonl_dicts())) > 1
        # merging the (possibly empty) per-cell counters never raises
        assert telemetry.merge_counters(sessions) == {}


class TestExportDispatch:
    def test_unknown_kind_raises(self, tmp_path):
        from repro.core.export import export

        with pytest.raises(ValueError, match="unknown export kind"):
            export(ExperimentResult("x"), kind="nope", path=tmp_path / "x")

    def test_type_mismatch_raises(self, tmp_path):
        from repro.core.export import export

        with pytest.raises(TypeError, match="expects ExperimentResult"):
            export(object(), kind="records", path=tmp_path / "x.json")

    def test_records_roundtrip(self, tmp_path):
        from repro.core.export import export

        exp = Runner().run_grid(GRID)
        path = tmp_path / "records.json"
        export(exp, kind="records", path=path)
        doc = json.loads(path.read_text())
        assert doc["experiment"] == GRID.name
        assert len(doc["records"]) == len(GRID)

    def test_sweep_telemetry_merges_counters(self, tmp_path):
        from repro.core.export import export

        runner = Runner()
        with telemetry.enabled():
            exp = runner.run_grid(GRID, workers=2)
        path = tmp_path / "sweep.jsonl"
        n = export(
            exp, kind="sweep-telemetry", path=path,
            extra_counters=runner.cache_stats(),
        )
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == n
        assert lines[0] == {"type": "sweep", "name": GRID.name}
        cells = [l for l in lines if l["type"] == "cell"]
        assert len(cells) == len(GRID)
        merged = [l for l in lines if l["type"] == "merged_counter"]
        names = {l["name"] for l in merged}
        assert "hits" in names and "misses" in names
        # merged counters carry their provenance: the schema stamp and
        # the worker pids whose sessions were folded together
        for line in merged:
            assert line["schema"] == telemetry.TELEMETRY_SCHEMA
            assert line["worker_ids"]
        session_ids = {
            l["worker_id"] for l in lines
            if l["type"] == "meta" and "worker_id" in l
        }
        assert set(merged[0]["worker_ids"]) == session_ids


class TestFaultPlanCellIsolation:
    """Regression net: two cells differing only in ``fault_plan`` are
    *different experiments* — they must never share a derived jitter
    seed — over *one workload*: a program never sees the plan, so they
    share one trace recording and the faults are charged on replay."""

    def test_fault_plans_never_share_derived_seed(self):
        from repro.core.spec import derive_cell_seed

        plain = RunSpec("giraph", "bfs", "amazon")
        crashed = RunSpec(
            "giraph", "bfs", "amazon",
            fault_plan=named_plan("crash", at=5.0),
        )
        slowed = RunSpec(
            "giraph", "bfs", "amazon",
            fault_plan=named_plan("straggler", at=2.0, duration=3.0),
        )
        seeds = {
            derive_cell_seed(202, spec) for spec in (plain, crashed, slowed)
        }
        assert len(seeds) == 3

    def test_fault_plans_share_one_trace_key(self):
        from repro.core.trace_cache import trace_key
        from repro.datasets.registry import load_dataset
        from repro.des.faults import FaultPlan

        graph = load_dataset("amazon", scale=1.0)
        key = trace_key("bfs", graph, dataset="amazon", scale=1.0, params={})
        specs = [
            RunSpec("giraph", "bfs", "amazon", fault_plan=plan)
            for plan in (
                None,
                named_plan("crash", at=5.0),
                named_plan("straggler", at=2.0, duration=3.0),
                FaultPlan.empty(),
            )
        ]
        # three distinct cells (the empty plan is no plan), one workload
        assert len({spec.cell_key() for spec in specs}) == 3
        assert {spec.cell_key()[1:4] for spec in specs} == {
            specs[0].cell_key()[1:4]
        }
        runner = Runner()
        for spec in specs:
            runner.run(spec)
        # the one recording sits under the plan-free key
        assert len(runner.trace_cache) == 1
        assert runner.trace_cache.lookup(key, graph) is not None

    def test_fault_plans_share_one_recording(self):
        runner = Runner()
        plain = runner.run(RunSpec("hadoop", "bfs", "amazon"))
        crashed = runner.run(RunSpec(
            "hadoop", "bfs", "amazon",
            fault_plan=named_plan(
                "crash", at=0.5 * plain.execution_time, node=1
            ),
        ))
        again = runner.run(RunSpec("hadoop", "bfs", "amazon"))
        assert runner.trace_cache.misses == 1
        assert runner.trace_cache.hits == 2
        # the plan still reaches the charge
        assert crashed.execution_time > plain.execution_time
        assert records_equal(plain, again)


class TestDiscoveryAPI:
    def test_listings_are_sorted_and_described(self):
        from repro.algorithms.base import list_algorithms
        from repro.datasets.registry import list_datasets
        from repro.platforms.registry import list_platforms

        for listing in (list_platforms(), list_algorithms(), list_datasets()):
            names = [name for name, _ in listing]
            assert names == sorted(names)
            assert all(desc for _, desc in listing)
        assert {n for n, _ in list_platforms()} == set(PLATFORM_NAMES)

    def test_cli_validator_points_at_graphbench_list(self):
        import argparse

        from repro.cli import _known

        with pytest.raises(argparse.ArgumentTypeError, match="graphbench list"):
            _known("platform")("pregelix")
        assert _known("dataset")("AMAZON") == "amazon"

    def test_graphbench_list_runs(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("giraph", "bfs", "amazon"):
            assert name in out

    def test_graphbench_grid_sweep_cli(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "tel.jsonl"
        rc = main([
            "sweep", "--mode", "grid",
            "--platforms", "giraph", "graphlab",
            "--algorithms", "bfs",
            "--datasets", "amazon",
            "--workers", "2",
            "--json", str(path),
        ])
        assert rc == 0
        assert path.exists()
        out = capsys.readouterr().out
        assert "2 worker process(es)" in out
