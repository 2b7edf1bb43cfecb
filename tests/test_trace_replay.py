"""Trace-replay equivalence: platforms charge identical costs whether
driven by a live superstep program or a cached
:class:`~repro.algorithms.base.SuperstepTrace`.

Every platform x every algorithm is checked on small unregistered
graphs (identity scale model, so no simulated crashes): the
:class:`JobResult` from trace replay must be *identical* — T, Tc,
breakdown, supersteps, and output — to live execution.
"""

import inspect

import numpy as np
import pytest

from repro.algorithms.base import (
    ALGORITHM_NAMES,
    get_algorithm,
    record_trace,
)
from repro.core.runner import Runner
from repro.core.spec import RunSpec
from repro.core.suite import ALL_PLATFORMS
from repro.core.trace_cache import TraceCache, trace_key
from repro.platforms import get_platform
from repro.platforms.registry import PLATFORM_NAMES


def _record(algorithm: str, graph):
    algo = get_algorithm(algorithm)
    prog = algo.program(graph, **algo.default_params(graph))
    return record_trace(prog, graph, algorithm=algorithm)


def _assert_identical(live, replayed) -> None:
    assert replayed.execution_time == live.execution_time
    assert replayed.computation_time == live.computation_time
    assert replayed.breakdown == live.breakdown
    assert replayed.supersteps == live.supersteps
    if isinstance(live.output, np.ndarray):
        assert np.array_equal(replayed.output, live.output)
    else:
        assert replayed.output == live.output


@pytest.mark.parametrize("platform", PLATFORM_NAMES)
@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
class TestReplayMatchesLive:
    def test_undirected(self, platform, algorithm, random_graph, small_cluster):
        plat = get_platform(platform)
        live = plat.run(algorithm, random_graph, small_cluster)
        trace = _record(algorithm, random_graph)
        replayed = plat.run(algorithm, random_graph, small_cluster, trace=trace)
        _assert_identical(live, replayed)

    def test_directed(self, platform, algorithm, random_digraph, small_cluster):
        plat = get_platform(platform)
        live = plat.run(algorithm, random_digraph, small_cluster)
        trace = _record(algorithm, random_digraph)
        replayed = plat.run(algorithm, random_digraph, small_cluster, trace=trace)
        _assert_identical(live, replayed)


class TestRecorder:
    def test_trace_shape(self, random_graph):
        trace = _record("bfs", random_graph)
        assert trace.algorithm == "bfs"
        assert trace.num_vertices == random_graph.num_vertices
        assert trace.num_supersteps == len(trace.reports)
        assert trace.reports[-1].halted
        assert trace.matches(random_graph)

    def test_reports_are_frozen_and_pinned(self, random_graph):
        trace = _record("bfs", random_graph)
        report = trace.reports[0]
        assert getattr(report, "_trace_pinned", False)
        with pytest.raises(ValueError):
            report.compute_edges[0] = 99

    def test_replay_is_reusable(self, random_graph):
        trace = _record("bfs", random_graph)
        first = [r.num_active(trace.num_vertices) for r in trace.replay(random_graph)]
        second = [r.num_active(trace.num_vertices) for r in trace.replay(random_graph)]
        assert first == second and len(first) == trace.num_supersteps

    def test_replay_output_matches_program_contract(self, random_graph):
        algo = get_algorithm("conn")
        prog = algo.program(random_graph)
        trace = record_trace(prog, random_graph, algorithm="conn")
        replay = trace.replay(random_graph)
        for _ in replay:
            pass
        assert np.array_equal(replay.result(), trace.output)
        # CONN overrides output_bytes (the paper's "large output");
        # replay must serve the recorded value, not the base default.
        assert replay.output_bytes() == trace.output_size_bytes

    def test_record_rejects_stepped_program(self, random_graph):
        algo = get_algorithm("bfs")
        prog = algo.program(random_graph, **algo.default_params(random_graph))
        next(iter(prog))
        with pytest.raises(ValueError):
            record_trace(prog, random_graph)

    def test_record_rejects_foreign_graph(self, random_graph, random_digraph):
        algo = get_algorithm("bfs")
        prog = algo.program(random_graph, source=0)
        with pytest.raises(ValueError):
            record_trace(prog, random_digraph)

    def test_replay_rejects_mismatched_graph(self, random_graph, random_digraph):
        trace = _record("bfs", random_graph)
        with pytest.raises(ValueError):
            trace.replay(random_digraph)

    def test_run_rejects_wrong_algorithm_trace(self, random_graph, small_cluster):
        trace = _record("bfs", random_graph)
        with pytest.raises(ValueError):
            get_platform("giraph").run(
                "conn", random_graph, small_cluster, trace=trace
            )


class TestTraceCache:
    def test_multi_platform_sweep_records_once(self, random_graph, small_cluster):
        """The acceptance criterion: 6 platforms, 1 algorithm, 1 dataset
        -> the program executes exactly once (5 hits, 1 miss)."""
        runner = Runner()
        for plat in ALL_PLATFORMS:
            rec = runner.run(RunSpec(plat, "bfs", random_graph, small_cluster))
            assert rec.ok, (plat, rec.failure_reason)
        assert runner.trace_cache.misses == 1
        assert runner.trace_cache.hits == len(ALL_PLATFORMS) - 1

    def test_key_ignores_partitioning_but_not_params(self, random_graph):
        k1 = trace_key("bfs", random_graph, params={"source": 1})
        k2 = trace_key("bfs", random_graph, params={"source": 2})
        k3 = trace_key("bfs", random_graph, params={"source": 1})
        assert k1 != k2 and k1 == k3

    def test_named_dataset_key_uses_scale(self, random_graph):
        k1 = trace_key("bfs", random_graph, dataset="kgs", scale=1.0)
        k2 = trace_key("bfs", random_graph, dataset="kgs", scale=2.0)
        assert k1 != k2

    def test_eviction_bounds_entries(self, random_graph):
        cache = TraceCache(max_entries=2)
        algo = get_algorithm("bfs")
        for source in range(4):
            cache.get_or_record(algo, random_graph, params={"source": source})
        assert len(cache) == 2
        assert cache.misses == 4

    def test_stale_graph_object_is_not_served(self, random_graph, random_digraph):
        cache = TraceCache()
        algo = get_algorithm("bfs")
        key = trace_key("bfs", random_graph, dataset="x")
        trace, _ = cache.get_or_record(algo, random_graph, dataset="x")
        assert cache.lookup(key, random_graph) is trace
        assert cache.lookup(key, random_digraph) is None

    def test_disabled_cache_runs_live(self, random_graph, small_cluster):
        runner = Runner(use_trace_cache=False)
        rec = runner.run(RunSpec("giraph", "bfs", random_graph, small_cluster))
        assert rec.ok
        assert runner.trace_cache.hits == runner.trace_cache.misses == 0

    def test_fault_plan_is_part_of_the_key(self):
        """The fault plan keys the *cell* — its seed, its deduplication
        and its served answer — but not the recording, because a
        program never sees the plan."""
        from repro.des.faults import FaultPlan, named_plan

        def spec(plan):
            return RunSpec("hadoop", "bfs", "amazon", fault_plan=plan)

        bare = spec(None).cell_key()
        # the empty plan is the identity: it keys the fault-free cell
        assert spec(FaultPlan.empty()).cell_key() == bare
        crash = spec(named_plan("crash", at=5.0)).cell_key()
        other = spec(named_plan("crash", at=6.0)).cell_key()
        assert crash != bare
        assert crash != other
        # the workload part of the cell key, which groups recordings,
        # is the same for every plan
        assert crash[1:4] == other[1:4] == bare[1:4]
        assert "fault_plan" not in inspect.signature(trace_key).parameters

    def test_replayed_trace_does_not_mask_faults(
        self, random_graph, small_cluster
    ):
        """Replaying a recorded workload under a fault plan charges the
        same faulted costs as live execution under that plan."""
        from repro.des.faults import named_plan

        plat = get_platform("graphlab")
        base = plat.run("bfs", random_graph, small_cluster)
        plan = named_plan("crash", at=0.5 * base.execution_time, node=1)
        live = plat.run("bfs", random_graph, small_cluster, fault_plan=plan)
        trace = _record("bfs", random_graph)
        replayed = plat.run(
            "bfs", random_graph, small_cluster, trace=trace, fault_plan=plan
        )
        _assert_identical(live, replayed)
        assert replayed.job_restarts == live.job_restarts == 1
        assert replayed.recovery_seconds == live.recovery_seconds

    def test_one_recording_serves_every_fault_plan(
        self, random_graph, small_cluster
    ):
        """Property: one recording serves the fault-free cell and every
        plan, and each plan's replayed result equals its live run."""
        from repro.des.faults import FaultPlan, named_plan

        base = get_platform("graphlab").run("bfs", random_graph, small_cluster)
        runner = Runner()
        plans = [
            None,
            named_plan("crash", at=0.5 * base.execution_time, node=1),
            named_plan("crash", at=0.8 * base.execution_time, node=2),
            named_plan("straggler", at=0.2 * base.execution_time,
                       duration=0.5 * base.execution_time),
            FaultPlan.empty(),
        ]
        for platform in ("graphlab", "hadoop"):
            for cell_plan in plans:
                record = runner.run(RunSpec(
                    platform, "bfs", random_graph, small_cluster,
                    fault_plan=cell_plan,
                ))
                live = get_platform(platform).run(
                    "bfs", random_graph, small_cluster, fault_plan=cell_plan
                )
                _assert_identical(live, record.result)
                assert record.result.job_restarts == live.job_restarts
                assert record.result.task_retries == live.task_retries
                assert (
                    record.result.recovery_seconds == live.recovery_seconds
                )
        # one recording, replayed into every platform under every plan
        assert runner.trace_cache.misses == 1
        assert runner.trace_cache.hits == 2 * len(plans) - 1


class TestWallClock:
    def test_wall_fields_populated(self, random_graph, small_cluster):
        result = get_platform("giraph").run("bfs", random_graph, small_cluster)
        assert result.wall_time_seconds > 0
        assert set(result.wall_breakdown) == {"prepare", "charge"}
        assert result.wall_time_seconds == pytest.approx(
            sum(result.wall_breakdown.values())
        )

    def test_runner_accounts_trace_recording(self, random_graph, small_cluster):
        runner = Runner()
        rec = runner.run(RunSpec("giraph", "bfs", random_graph, small_cluster))
        assert rec.result is not None
        assert "trace_record" in rec.result.wall_breakdown
        # Second platform hits the cache: no recording phase.
        rec2 = runner.run(RunSpec("graphlab", "bfs", random_graph, small_cluster))
        assert rec2.result is not None
        assert "trace_record" not in rec2.result.wall_breakdown


class TestRepetitionShortCircuit:
    def test_deterministic_repetitions_simulate_once(
        self, random_graph, small_cluster, monkeypatch
    ):
        from repro.platforms.giraph import Giraph

        calls = {"n": 0}
        orig = Giraph._execute

        def counting(self, *args, **kwargs):
            calls["n"] += 1
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(Giraph, "_execute", counting)
        runner = Runner(repetitions=7, jitter=0.0)
        rec = runner.run(RunSpec("giraph", "bfs", random_graph, small_cluster))
        assert calls["n"] == 1
        assert len(rec.repetition_times) == 7
        assert len(set(rec.repetition_times)) == 1
        assert rec.execution_time == pytest.approx(rec.repetition_times[0])

    def test_jittered_repetitions_still_vary(self, random_graph, small_cluster):
        runner = Runner(repetitions=4, jitter=0.05)
        rec = runner.run(RunSpec("giraph", "bfs", random_graph, small_cluster))
        assert len(rec.repetition_times) == 4
        assert len(set(rec.repetition_times)) > 1
