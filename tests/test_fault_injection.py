"""Deterministic fault injection with per-platform recovery semantics.

The chaos test matrix (the acceptance bar for the fault layer):

* same seed + plan => bit-identical :class:`JobResult` on every
  platform x {BFS, CONN} cell, including the failure outcome;
* the empty plan is the identity — every charged duration is
  bit-identical to a run with no plan at all;
* recovery semantics differ by platform exactly as the paper's
  architectures imply: MapReduce engines finish with task retries, BSP
  engines abort (Giraph 0.2, checkpointing off) or restart from the
  last checkpoint barrier / resubmit the whole job, Neo4j reboots its
  single node;
* an injected memory-ceiling fault reproduces the Section 4.1 crash
  mechanism (``RunStatus.CRASHED`` with a heap-exhaustion reason).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.des.faults import (
    NAMED_PLANS,
    Fault,
    FaultInjector,
    FaultKind,
    FaultPlan,
    named_plan,
    schedule_plan,
)
from repro.platforms.base import PlatformCrash
from repro.platforms.registry import PLATFORM_NAMES, get_platform

ALGORITHMS = ["bfs", "conn"]

#: recovery archetype per platform (the tentpole's semantics table)
SEMANTICS = {
    "hadoop": "retry",
    "yarn": "retry",
    "giraph": "abort",  # checkpointing off: worker loss kills the job
    "graphlab": "restart",
    "graphlab_mp": "restart",
    "stratosphere": "restart",
    "neo4j": "restart",
}


def _cluster_for(plat, cluster):
    return cluster if plat.distributed else None


def _outcome(plat, algorithm, graph, cluster, plan):
    """A comparable summary of one faulted run, crash or not."""
    try:
        r = plat.run(algorithm, graph, _cluster_for(plat, cluster),
                     fault_plan=plan)
    except PlatformCrash as crash:
        return ("crash", str(crash))
    return (
        "ok",
        r.execution_time,
        r.computation_time,
        tuple(sorted(r.breakdown.items())),
        r.supersteps,
        r.task_retries,
        r.speculative_tasks,
        r.job_restarts,
        r.recovery_seconds,
        r.faults_injected,
    )


@pytest.fixture(scope="module")
def graph():
    from repro.graph.generators.random_graphs import erdos_renyi

    return erdos_renyi(200, 800, seed=7, name="chaos200")


@pytest.fixture(scope="module")
def cluster():
    from repro.cluster.spec import das4_cluster

    return das4_cluster(4, 1)


@pytest.fixture(scope="module")
def baselines(graph, cluster):
    """(platform, algorithm) -> fault-free JobResult for the grid."""
    out = {}
    for pname in PLATFORM_NAMES:
        plat = get_platform(pname)
        for aname in ALGORITHMS:
            out[(pname, aname)] = plat.run(
                aname, graph, _cluster_for(plat, cluster)
            )
    return out


def _mid_crash_plan(baseline) -> FaultPlan:
    """A crash at half the measured fault-free makespan — guaranteed to
    land inside the job on any platform."""
    return named_plan("crash", at=0.5 * baseline.execution_time, node=1)


# ---------------------------------------------------------------------------
# the chaos matrix: platform x algorithm
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("pname", PLATFORM_NAMES)
@pytest.mark.parametrize("aname", ALGORITHMS)
class TestChaosMatrix:
    def test_same_plan_is_bit_identical(
        self, baselines, graph, cluster, pname, aname
    ):
        plat = get_platform(pname)
        base = baselines[(pname, aname)]
        plan = FaultPlan.seeded(
            11, base.execution_time, num_faults=3,
            num_nodes=cluster.num_workers,
        )
        first = _outcome(plat, aname, graph, cluster, plan)
        second = _outcome(plat, aname, graph, cluster, plan)
        assert first == second

    def test_rebuilt_plan_is_bit_identical(
        self, baselines, graph, cluster, pname, aname
    ):
        """Two plans built from the same seed are the same plan."""
        plat = get_platform(pname)
        base = baselines[(pname, aname)]
        p1 = FaultPlan.seeded(23, base.execution_time)
        p2 = FaultPlan.seeded(23, base.execution_time)
        assert p1 == p2 and p1.key() == p2.key()
        assert _outcome(plat, aname, graph, cluster, p1) == _outcome(
            plat, aname, graph, cluster, p2
        )

    def test_empty_plan_is_identity(
        self, baselines, graph, cluster, pname, aname
    ):
        plat = get_platform(pname)
        base = baselines[(pname, aname)]
        r = plat.run(aname, graph, _cluster_for(plat, cluster),
                     fault_plan=FaultPlan.empty())
        assert r.execution_time == base.execution_time
        assert r.computation_time == base.computation_time
        assert r.breakdown == base.breakdown
        assert r.supersteps == base.supersteps
        if isinstance(base.output, np.ndarray):
            assert np.array_equal(r.output, base.output)
        assert r.task_retries == 0
        assert r.job_restarts == 0
        assert r.recovery_seconds == 0.0
        assert r.faults_injected == 0

    def test_crash_semantics_match_platform_architecture(
        self, baselines, graph, cluster, pname, aname
    ):
        plat = get_platform(pname)
        base = baselines[(pname, aname)]
        plan = _mid_crash_plan(base)
        semantics = SEMANTICS[pname]
        if semantics == "abort":
            with pytest.raises(PlatformCrash, match="checkpointing is off"):
                plat.run(aname, graph, _cluster_for(plat, cluster),
                         fault_plan=plan)
            return
        r = plat.run(aname, graph, _cluster_for(plat, cluster),
                     fault_plan=plan)
        assert r.execution_time > base.execution_time
        assert r.faults_injected == 1
        assert r.recovery_seconds > 0.0
        if semantics == "retry":
            # MapReduce finishes the job by re-running the dead node's
            # tasks — no whole-job restart.
            assert r.task_retries >= 1
            assert r.job_restarts == 0
        else:
            # BSP / single-node engines re-run the whole job.
            assert r.job_restarts == 1
            assert r.task_retries == 0
        assert "recovery" in r.breakdown
        assert r.breakdown["recovery"] == pytest.approx(
            r.recovery_seconds, rel=1e-12
        )


# ---------------------------------------------------------------------------
# per-platform recovery details
# ---------------------------------------------------------------------------
class TestRecoverySemantics:
    def test_giraph_checkpointing_turns_abort_into_restart(
        self, baselines, graph, cluster
    ):
        from repro.platforms.giraph import Giraph

        base = baselines[("giraph", "bfs")]
        plan = _mid_crash_plan(base)
        ckpt = Giraph(checkpoint_interval=1)
        r = ckpt.run("bfs", graph, cluster, fault_plan=plan)
        assert r.job_restarts == 1
        assert r.execution_time > base.execution_time
        assert "checkpoint" in r.breakdown
        assert "recovery" in r.breakdown

    def test_giraph_checkpoint_bounds_repaid_work(self, graph, cluster):
        """Restarting from the last checkpoint barrier re-pays less
        than restarting from scratch."""
        from repro.platforms.giraph import Giraph

        base = Giraph(checkpoint_interval=1).run("bfs", graph, cluster)
        late = named_plan("crash", at=0.9 * base.execution_time, node=1)
        r = Giraph(checkpoint_interval=1).run(
            "bfs", graph, cluster, fault_plan=late
        )
        # recovery = restart latency + work since the last barrier,
        # which is far less than the whole elapsed makespan
        assert r.recovery_seconds < Giraph.restart_seconds + base.execution_time * 0.5

    def test_restart_budget_exhaustion_fails_the_job(self, graph, cluster):
        base = get_platform("graphlab").run("bfs", graph, cluster)
        T = base.execution_time
        plan = FaultPlan(
            faults=(
                Fault(FaultKind.NODE_CRASH, at=0.3 * T, node=0),
                Fault(FaultKind.NODE_CRASH, at=0.6 * T, node=1),
                Fault(FaultKind.NODE_CRASH, at=0.9 * T, node=2),
            ),
            name="triple-crash",
        )
        with pytest.raises(PlatformCrash, match="restart budget exhausted"):
            get_platform("graphlab").run("bfs", graph, cluster,
                                         fault_plan=plan)

    def test_mapreduce_retry_budget_exhaustion(self, graph, cluster):
        base = get_platform("hadoop").run("bfs", graph, cluster)
        T = base.execution_time
        # six crashes one second apart: all land inside a single
        # iteration job, blowing its 4-attempt budget
        crashes = tuple(
            Fault(FaultKind.NODE_CRASH, at=0.5 * T + i, node=i)
            for i in range(6)
        )
        with pytest.raises(PlatformCrash, match="retry budget exhausted"):
            get_platform("hadoop").run(
                "bfs", graph, cluster,
                fault_plan=FaultPlan(faults=crashes, name="crash-storm"),
            )

    def test_neo4j_partition_is_noop(self, baselines, graph):
        """A network partition cannot touch a single-machine platform."""
        base = baselines[("neo4j", "bfs")]
        plan = named_plan("partition", at=0.2 * base.execution_time,
                          duration=10.0)
        r = get_platform("neo4j").run("bfs", graph, fault_plan=plan)
        assert r.execution_time == base.execution_time
        assert r.faults_injected == 0

    def test_disk_fault_slows_io_bound_platforms(
        self, baselines, graph, cluster
    ):
        base = baselines[("hadoop", "bfs")]
        plan = named_plan("disk", at=0.0,
                          duration=base.execution_time, severity=4.0)
        r = get_platform("hadoop").run("bfs", graph, cluster,
                                       fault_plan=plan)
        assert r.execution_time > base.execution_time
        assert r.faults_injected == 1

    def test_memory_fault_reproduces_oom_crash_mechanism(self, graph, cluster):
        """Regression vs the Section 4.1 crash matrix: a memory-ceiling
        fault on Giraph reproduces the same heap-exhaustion crash the
        findings machinery checks on (giraph, stats, wikitalk)."""
        from repro.core.findings import verify_findings  # noqa: F401 - cross-ref
        from repro.core.results import RunStatus
        from repro.core.runner import Runner
        from repro.core.spec import RunSpec

        runner = Runner()
        ok = runner.run(RunSpec("giraph", "cd", graph, cluster))
        assert ok.status is RunStatus.OK
        plan = named_plan("memory", at=0.0, severity=1e-7)
        crashed = runner.run(RunSpec("giraph", "cd", graph, cluster,
                                     fault_plan=plan))
        assert crashed.status is RunStatus.CRASHED
        assert "heap exhausted" in crashed.failure_reason

    def test_speculative_execution_caps_straggler_damage(self):
        """A long straggler costs one backup attempt, not the full
        slowdown."""
        eng = get_platform("hadoop")
        plan = FaultPlan(
            faults=(Fault(FaultKind.STRAGGLER, at=0.0, duration=1000.0,
                          severity=10.0),),
            name="slow-node",
        )
        inj = FaultInjector(plan, num_workers=4)
        charged, backup = eng._speculate(inj, 0.0, 100.0)
        # riding it out would cost 1000s; the backup attempt costs
        # nominal + launch latency and wins
        assert charged == 100.0
        assert backup == 100.0 + eng.speculative_launch_seconds
        assert inj.speculative_tasks == 1
        assert inj.recovery_seconds == backup

    def test_mild_straggler_is_ridden_out(self):
        eng = get_platform("hadoop")
        plan = FaultPlan(
            faults=(Fault(FaultKind.STRAGGLER, at=0.0, duration=1000.0,
                          severity=1.5),),
            name="mild",
        )
        inj = FaultInjector(plan, num_workers=4)
        charged, backup = eng._speculate(inj, 0.0, 100.0)
        # 50s extra < one fresh attempt: no backup launched
        assert charged == 150.0
        assert backup == 0.0
        assert inj.speculative_tasks == 0


# ---------------------------------------------------------------------------
# plan / injector unit behaviour
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_empty_plan_properties(self):
        plan = FaultPlan.empty()
        assert plan.is_empty and len(plan) == 0
        assert plan.key() == ()

    def test_plans_sort_by_time(self):
        plan = FaultPlan(faults=(
            Fault(FaultKind.NODE_CRASH, at=9.0),
            Fault(FaultKind.STRAGGLER, at=1.0, duration=2.0),
        ))
        assert [f.at for f in plan] == [1.0, 9.0]

    def test_json_round_trip(self):
        plan = FaultPlan.seeded(5, 300.0, num_faults=4, num_nodes=8)
        clone = FaultPlan.from_json(plan.to_json())
        assert clone == plan
        assert clone.key() == plan.key()
        assert clone.seed == 5

    def test_seeded_is_deterministic(self):
        a = FaultPlan.seeded(17, 100.0)
        b = FaultPlan.seeded(17, 100.0)
        c = FaultPlan.seeded(18, 100.0)
        assert a == b
        assert a != c

    def test_named_plans_cover_all_kinds(self):
        kinds = set()
        for name in NAMED_PLANS:
            plan = named_plan(name, at=10.0, duration=5.0)
            assert len(plan) == 1
            kinds.add(plan.faults[0].kind)
        assert kinds == set(FaultKind)

    def test_unknown_named_plan_raises(self):
        with pytest.raises(KeyError):
            named_plan("gremlins", at=1.0)

    def test_fault_validation(self):
        with pytest.raises(ValueError):
            Fault(FaultKind.NODE_CRASH, at=-1.0)
        with pytest.raises(ValueError):
            Fault(FaultKind.STRAGGLER, at=0.0, severity=0.5)
        with pytest.raises(ValueError):
            Fault(FaultKind.MEMORY_CEILING, at=0.0, severity=1.5)


class TestFaultInjector:
    def test_rejects_empty_plan(self):
        with pytest.raises(ValueError):
            FaultInjector(FaultPlan.empty())

    def test_crashes_consumed_once_in_time_order(self):
        plan = FaultPlan(faults=(
            Fault(FaultKind.NODE_CRASH, at=5.0, node=1),
            Fault(FaultKind.NODE_CRASH, at=2.0, node=0),
        ))
        inj = FaultInjector(plan)
        first = inj.next_crash(0.0, 10.0)
        assert first is not None and first.at == 2.0
        second = inj.next_crash(0.0, 10.0)
        assert second is not None and second.at == 5.0
        assert inj.next_crash(0.0, 10.0) is None
        assert inj.faults_fired == 2

    def test_crash_outside_window_does_not_fire(self):
        plan = named_plan("crash", at=100.0)
        inj = FaultInjector(plan)
        assert inj.next_crash(0.0, 50.0) is None
        assert inj.faults_fired == 0

    def test_stretch_applies_only_overlap(self):
        plan = FaultPlan(faults=(
            Fault(FaultKind.DISK_DEGRADE, at=10.0, duration=10.0,
                  severity=3.0),
        ))
        inj = FaultInjector(plan)
        # [0, 10) precedes the window: untouched, bit-identical
        assert inj.stretch(0.0, 10.0, "disk") == 10.0
        # [5, 15) overlaps 5s: 5 extra seconds per (severity - 1) = 10
        assert inj.stretch(5.0, 10.0, "disk") == pytest.approx(20.0)
        # wrong resource: untouched
        assert inj.stretch(12.0, 5.0, "cpu") == 5.0

    def test_partition_stalls_overlap(self):
        plan = named_plan("partition", at=10.0, duration=4.0)
        inj = FaultInjector(plan)
        # the 4s window overlaps fully: traffic stalls for its length
        assert inj.stretch(8.0, 10.0, "net") == pytest.approx(14.0)

    def test_memory_limit_applies_worst_ceiling(self):
        plan = FaultPlan(faults=(
            Fault(FaultKind.MEMORY_CEILING, at=0.0, severity=0.5),
            Fault(FaultKind.MEMORY_CEILING, at=1.0, severity=0.25),
        ))
        inj = FaultInjector(plan)
        assert inj.memory_limit(100.0) == 25.0
        assert inj.faults_fired == 2

    def test_accounting_counters(self):
        inj = FaultInjector(named_plan("crash", at=1.0))
        inj.note_retry(5.0)
        inj.note_speculative(2.0)
        inj.note_restart(7.0)
        assert inj.task_retries == 1
        assert inj.speculative_tasks == 1
        assert inj.job_restarts == 1
        assert inj.recovery_seconds == 14.0


class TestPlanSerializationProperties:
    """Property net over FaultPlan JSON serialization: round-trips are
    lossless (bit-identical keys *and* bit-identical charged
    durations), plan order is normalized, and malformed documents are
    rejected — hypothesis-driven so the whole plan space is covered,
    not just the presets."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @st.composite
    def _faults(draw):  # noqa: N805 - hypothesis composite convention
        from hypothesis import strategies as st

        kind = draw(st.sampled_from(list(FaultKind)))
        at = draw(st.floats(min_value=0.0, max_value=1e6,
                            allow_nan=False, allow_infinity=False))
        node = draw(st.integers(0, 63))
        duration = draw(st.floats(min_value=0.0, max_value=1e5,
                                  allow_nan=False, allow_infinity=False))
        if kind in (FaultKind.STRAGGLER, FaultKind.DISK_DEGRADE):
            severity = draw(st.floats(min_value=1.0, max_value=16.0,
                                      allow_nan=False))
        elif kind is FaultKind.MEMORY_CEILING:
            severity = draw(st.floats(min_value=0.01, max_value=1.0,
                                      allow_nan=False))
        else:
            severity = 1.0
        return Fault(kind=kind, at=at, node=node, duration=duration,
                     severity=severity)

    _plans = st.builds(
        lambda faults, seed: FaultPlan(
            faults=tuple(faults), name="prop", seed=seed
        ),
        st.lists(_faults(), min_size=0, max_size=8),
        st.none() | st.integers(0, 2**31),
    )

    @given(plan=_plans)
    @settings(max_examples=80, deadline=None)
    def test_json_round_trip_is_lossless(self, plan):
        clone = FaultPlan.from_json(plan.to_json())
        assert clone == plan
        assert clone.key() == plan.key()
        assert clone.seed == plan.seed
        assert clone.to_json() == plan.to_json()

    @given(
        plan=_plans,
        windows=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                          allow_infinity=False),
                st.floats(min_value=0.0, max_value=1e4, allow_nan=False,
                          allow_infinity=False),
                st.sampled_from(["cpu", "disk", "net"]),
            ),
            min_size=1, max_size=12,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_preserves_charged_durations(self, plan, windows):
        """The acceptance bar: serialize -> deserialize -> every
        injector query returns the bit-identical float."""
        if plan.is_empty:
            return
        clone = FaultPlan.from_json(plan.to_json())
        a = FaultInjector(plan, num_workers=8)
        b = FaultInjector(clone, num_workers=8)
        assert a.memory_limit(1e9) == b.memory_limit(1e9)
        for t0, seconds, resource in windows:
            assert a.stretch(t0, seconds, resource) == b.stretch(
                t0, seconds, resource
            )
        while True:
            ca, cb = a.next_crash(0.0, 2e6), b.next_crash(0.0, 2e6)
            assert ca == cb
            if ca is None:
                break
        assert a.faults_fired == b.faults_fired

    @given(order_seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_out_of_order_documents_normalize(self, order_seed):
        """A plan document with shuffled fault order deserializes to
        the same time-sorted plan and the same cache key."""
        import random

        plan = FaultPlan.seeded(3, 500.0, num_faults=5)
        doc = plan.to_dict()
        random.Random(order_seed).shuffle(doc["faults"])
        clone = FaultPlan.from_dict(doc)
        assert clone == plan
        assert clone.key() == plan.key()
        assert [f.at for f in clone] == sorted(f.at for f in clone)

    @pytest.mark.parametrize("doc", [
        '{"faults": [{"kind": "gremlins", "at": 1.0}]}',   # unknown kind
        '{"faults": [{"kind": "node_crash", "at": -1.0}]}',  # negative time
        '{"faults": [{"kind": "straggler", "at": 0.0, "severity": 0.5}]}',
        '{"faults": [{"kind": "memory_ceiling", "at": 0.0, "severity": 2.0}]}',
        '{"faults": [{"kind": "node_crash"}]}',            # missing time
        "not json at all",
    ])
    def test_malformed_documents_rejected(self, doc):
        import json as _json

        with pytest.raises((ValueError, KeyError, _json.JSONDecodeError)):
            FaultPlan.from_json(doc)


@pytest.mark.parametrize("pname", PLATFORM_NAMES)
@pytest.mark.parametrize("preset", NAMED_PLANS + ("seeded",))
class TestPresetRoundTripBitIdentity:
    """Every named preset x every platform: a JSON-round-tripped plan
    produces the bit-identical run outcome (charged durations, crash
    messages, accounting) as the original."""

    def test_round_tripped_preset_runs_bit_identical(
        self, baselines, graph, cluster, pname, preset
    ):
        plat = get_platform(pname)
        base = baselines[(pname, "bfs")]
        if preset == "seeded":
            plan = FaultPlan.seeded(
                31, base.execution_time, num_faults=3,
                num_nodes=cluster.num_workers,
            )
        else:
            plan = named_plan(
                preset,
                at=0.4 * base.execution_time,
                duration=0.2 * base.execution_time,
            )
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.key() == plan.key()
        assert _outcome(plat, "bfs", graph, cluster, plan) == _outcome(
            plat, "bfs", graph, cluster, clone
        )


class TestSchedulePlan:
    def test_plan_materializes_as_des_events(self):
        from repro.des import Simulator

        sim = Simulator()
        plan = FaultPlan(faults=(
            Fault(FaultKind.NODE_CRASH, at=5.0, node=2),
            Fault(FaultKind.STRAGGLER, at=2.0, duration=1.0),
        ))
        fired: list[Fault] = []
        events = schedule_plan(sim, plan, fired.append)
        assert len(events) == len(plan)
        sim.run()
        assert [f.at for f in fired] == [2.0, 5.0]
        assert sim.now == 5.0

    def test_composes_with_workload_process(self):
        from repro.des import Simulator

        sim = Simulator()
        plan = named_plan("crash", at=3.0, node=1)
        seen: list[Fault] = []
        schedule_plan(sim, plan, seen.append)

        def workload():
            yield sim.timeout(10.0)

        proc = sim.process(workload())
        sim.run(until=proc)
        assert len(seen) == 1 and seen[0].node == 1
        assert sim.now == 10.0
