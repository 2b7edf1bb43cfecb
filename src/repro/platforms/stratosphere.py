"""Stratosphere platform model (Nephele + PACT, paper Section 3.1).

One Nephele DAG job per algorithm run:

* the input is read from HDFS **once** — the PACT compiler's plan
  keeps iteration state flowing through *network channels* instead of
  HDFS round trips, which is why Stratosphere lands "up to an order of
  magnitude" below Hadoop (Section 4.1.1);
* every iteration still sweeps all records (a generic dataflow has no
  active-vertex notion — Section 4.4 notes Stratosphere "need[s] to
  traverse all vertices");
* workers allocate their full configured memory budget immediately at
  startup (Section 4.2's flat 20 GB memory line) and run the heaviest
  network load of all platforms;
* when an operator's per-worker intermediate state overflows the memory
  budget, it spills to disk in multiple passes (the STATS-on-DotaLeague
  behaviour the paper had to terminate after ~4 hours).

Recovery semantics (fault injection): Nephele channels are ephemeral —
losing a task manager mid-iteration tears down the whole DAG, and the
job client resubmits the plan from scratch (no iteration snapshots in
the evaluated release).  Crashes therefore re-pay everything executed
so far plus a resubmission latency, within a small restart budget.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import Algorithm, SuperstepProgram
from repro.cluster.hdfs import HDFS
from repro.cluster.monitoring import MASTER, worker_node
from repro.cluster.spec import GB, ClusterSpec
from repro.graph.graph import Graph
from repro.platforms.registry import cached_context
from repro.platforms.base import Charge, JobResult, Platform, Rule
from repro.platforms.scale import ScaleModel

__all__ = ["Stratosphere"]


#: cost rules: rule name, breakdown component, fault resource
_JOB_SUBMIT = Rule("job_submit", "startup")
_HDFS_READ = Rule("hdfs_read", "read", "disk")
_RECORD_SWEEP = Rule("record_sweep", "compute", "cpu")
_NET_TRANSFER = Rule("net_transfer", "communication", "net")
_CHANNEL_SETUP = Rule("channel_setup", "channels")
_HDFS_WRITE = Rule("hdfs_write", "write", "disk")


class Stratosphere(Platform):
    """Generic, distributed (PACT dataflow over Nephele)."""

    name = "stratosphere"
    label = "Stratosphere"
    kind = "generic"

    # -- cost model ---------------------------------------------------------
    #: single job-graph submission + task deployment
    startup_seconds = 8.0
    #: record-processing rate per core (PACT serialization included)
    edge_rate = 3e6
    #: per-iteration channel (re)establishment + plan step overhead
    channel_seconds = 1.5
    #: memory budget a worker pins at startup (paper config: 20 GB)
    memory_budget_bytes = 20 * GB
    #: bytes shipped per message through a network channel
    message_channel_bytes = 16.0
    #: JVM slowdown while an operator spills (GC pressure + disk stalls
    #: — the regime in which the paper terminated STATS/DotaLeague
    #: after ~4 hours without completion); the added time is charged
    #: as its own ``spill_gc`` breakdown entry
    spill_gc_factor = 4.0
    baseline_bytes = 1 * GB
    # -- recovery semantics (fault injection) ------------------------------
    #: whole-plan resubmissions tolerated before the job is declared dead
    max_job_restarts = 1
    #: DAG teardown + plan resubmission latency per restart
    restart_seconds = 15.0
    #: cost rule of a plan resubmission
    restart_rule = "plan_resubmit"

    def _execute(
        self,
        algo: Algorithm,
        prog: SuperstepProgram,
        graph: Graph,
        cluster: ClusterSpec,
        scale: ScaleModel,
        ch: Charge,
    ) -> JobResult:
        parts = cluster.num_workers * cluster.cores_per_worker
        ctx = cached_context(graph, parts, "hash", scale)
        hdfs = HDFS(cluster)
        trace = ch.trace
        m = cluster.machine
        rep_worker = worker_node(0)

        trace.set_memory(MASTER, 0.0, 8 * GB)
        # Workers grab the full configured budget immediately (fig. 9).
        trace.set_memory(rep_worker, 0.0, self.baseline_bytes + self.memory_budget_bytes)
        startup = ch.phase("startup", (_JOB_SUBMIT, self.startup_seconds))
        trace.record(MASTER, startup.t0, startup.t1, cpu=0.005, net_in=10e4, net_out=10e4)

        text_bytes = scale.bytes_text(graph)
        read = ch.phase("read", (
            _HDFS_READ, hdfs.parallel_read_seconds(text_bytes, cluster.num_workers)
        ))
        trace.record(rep_worker, read.t0, read.t0 + max(read.total, 1e-9),
                     cpu=min(cluster.cores_per_worker / m.cores, 1.0) * 0.5,
                     span=read.spans[0])

        half_edges_scaled = scale.edges(graph.num_half_edges)
        per_worker_mem = ch.memory_limit(self.memory_budget_bytes)
        cpu = min(cluster.cores_per_worker / m.cores, 1.0)

        def superstep_records(rows, step, net_bytes):
            # NIC view: the PACT plan streams the *whole iteration state*
            # — every record of the workset/solution-set join crosses a
            # network channel twice per iteration (repartition out, result
            # back) regardless of the hash cut, on top of the remote
            # message slice.  That record stream is what makes
            # Stratosphere the heaviest network user in Figure 10; the
            # time charge keeps the calibrated max-shard model.
            channel_bytes = (
                2.0 * (half_edges_scaled / parts) * self.message_channel_bytes
            )
            rate_net = (channel_bytes + net_bytes) / np.maximum(step.total, 1e-9)
            rows.record(
                rep_worker, step.t0, step.t1,
                cpu=cpu, net_in=rate_net, net_out=rate_net,
                span=step.spans[1],
            )
            rows.record(MASTER, step.t0, step.t1, cpu=0.004,
                        net_in=120e3, net_out=120e3)

        for tab in ch.supersteps(
            prog, "supersteps", ("compute", "communication", "channels"),
            ctx=ctx,
        ):
            net_bytes = np.maximum(tab.remote_sent_max, tab.received_max)
            step_comm = net_bytes / cluster.network_bps
            # Spill handling: intermediates beyond the memory budget do
            # extra disk round trips per overflow factor.
            per_worker_state = tab.received_max
            spilled = per_worker_state > per_worker_mem
            if spilled.any():
                passes = per_worker_state / per_worker_mem
                step_comm = np.where(
                    spilled,
                    step_comm
                    + passes * per_worker_state / m.disk_write_bps
                    + passes * per_worker_state / m.disk_read_bps,
                    step_comm,
                )
            step = ch.steps(
                tab,
                # Generic dataflow: full sweep regardless of active set
                # (one parallel task slot per shard).
                (_RECORD_SWEEP, half_edges_scaled / parts / self.edge_rate),
                (_NET_TRANSFER, step_comm, 0.0, {"spilled": spilled}),
                (_CHANNEL_SETUP, self.channel_seconds),
                slowdown=("spill_gc", self.spill_gc_factor, spilled),
            )
            trace.rows(tab.rows, superstep_records, step, net_bytes)

        out_bytes = scale.vertices(prog.output_bytes())
        write = ch.phase("write", (
            _HDFS_WRITE, hdfs.parallel_write_seconds(out_bytes, cluster.num_workers)
        ))
        trace.record(rep_worker, write.t0, write.t0 + max(write.total, 1e-9),
                     cpu=cpu * 0.3, span=write.spans[0])
        ch.recover("write")
        trace.set_memory(rep_worker, ch.t, self.baseline_bytes)
        return ch.result(algo, prog, graph, cluster)
