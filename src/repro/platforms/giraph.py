"""Giraph platform model (Pregel BSP on Hadoop, paper Section 3.1).

Execution structure:

1. **Job submission** — a map-only Hadoop job is launched and the
   ZooKeeper quorum coordinates worker registration.
2. **Input superstep** — each worker reads its input split from HDFS in
   parallel and materializes its partition as Java objects in memory.
3. **Supersteps** — only *active* vertices compute (Giraph's dynamic
   computation); messages to remote partitions cross the network and
   are buffered **in memory** on the receiving worker; a ZooKeeper
   barrier ends each superstep.
4. **Output** — workers write results to HDFS.

Crash semantics (the paper's key Giraph finding): when a worker's
partition footprint plus a superstep's message buffers exceed the JVM
heap, the job dies.  Memory is charged with Java object overheads, so
STATS on hub graphs (WikiTalk) and almost everything on Friendster at
20 workers reproduce the paper's crash matrix mechanistically.

Recovery semantics (fault injection): a BSP engine cannot re-run a
single task — losing a worker invalidates the whole superstep.  With
periodic checkpointing on, the job aborts the superstep and restarts
from the last checkpoint barrier, re-paying the work since it plus a
coordinated restart latency.  With checkpointing off (the Giraph 0.2
default the paper ran) a lost worker kills the job outright.  A
reduced per-worker memory ceiling lowers the effective heap, which is
exactly the OOM crash mechanism of the paper's Section 4.1 cells.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import Algorithm, SuperstepProgram
from repro.cluster.hdfs import HDFS
from repro.cluster.monitoring import MASTER, worker_node
from repro.cluster.spec import GB, ClusterSpec
from repro.des.faults import FaultInjector
from repro.graph.graph import Graph
from repro.platforms.registry import cached_context
from repro.platforms.base import (
    Charge,
    JobResult,
    Platform,
    PlatformCrash,
    Rule,
)
from repro.platforms.scale import ScaleModel

__all__ = ["Giraph"]


#: cost rules: rule name, breakdown component, fault resource
_JOB_SUBMIT = Rule("job_submit", "startup")
_INPUT_SUPERSTEP = Rule("input_superstep", "load", "disk")
_VERTEX_COMPUTE = Rule("vertex_compute", "compute", "cpu")
_MESSAGE_FLUSH = Rule("message_flush", "communication", "net")
_ZK_BARRIER = Rule("zk_barrier", "barrier")
_CHECKPOINT = Rule("checkpoint", "checkpoint", "disk")
_HDFS_WRITE = Rule("hdfs_write", "write", "disk")


class Giraph(Platform):
    """Graph-specific, distributed, in-memory (Pregel model)."""

    name = "giraph"
    label = "Giraph"
    kind = "graph"

    # -- cost model (paper-scale constants) -----------------------------------
    #: job submission + ZooKeeper worker registration
    startup_seconds = 10.0
    #: per-superstep ZooKeeper barrier + master coordination
    barrier_seconds = 0.4
    #: JVM vertex-program edge-processing rate per core (edges/s)
    edge_rate = 10e6
    #: Java heap per worker (paper configuration: 20 GB max heap)
    heap_bytes = 20 * GB
    #: Java object overhead per stored half-edge (adjacency entry)
    bytes_per_half_edge = 40.0
    #: Java object overhead per vertex (Vertex + id + value objects)
    bytes_per_vertex = 100.0
    #: Java object overhead per buffered message
    bytes_per_message = 80.0
    #: payload expansion for buffered message bodies (boxing, copies)
    payload_factor = 2.0
    #: baseline JVM + OS memory on a worker
    baseline_bytes = 2 * GB
    # -- recovery semantics (fault injection) ------------------------------
    #: ZooKeeper failure detection + coordinated worker restart latency
    #: when resuming from a checkpoint barrier
    restart_seconds = 30.0

    def __init__(
        self,
        *,
        use_combiner: bool = False,
        checkpoint_interval: int = 0,
        out_of_core: bool = False,
    ) -> None:
        #: merge same-destination messages at the sender (ablation
        #: feature; the paper ran Giraph 0.2 without custom combiners)
        self.use_combiner = bool(use_combiner)
        #: write a checkpoint every N supersteps (0 = off; the paper
        #: notes Giraph "uses periodic checkpoints" for fault tolerance)
        self.checkpoint_interval = int(checkpoint_interval)
        #: spill graph partitions and message buffers to disk instead
        #: of crashing — the Giraph 1.0 feature that later fixed the
        #: paper's OOM cells, at a steep disk-bandwidth price
        self.out_of_core = bool(out_of_core)

    def _execute(
        self,
        algo: Algorithm,
        prog: SuperstepProgram,
        graph: Graph,
        cluster: ClusterSpec,
        scale: ScaleModel,
        ch: Charge,
    ) -> JobResult:
        parts = cluster.num_workers
        ctx = cached_context(graph, parts, "hash", scale)
        hdfs = HDFS(cluster)
        trace = ch.trace
        m = cluster.machine
        heap = ch.memory_limit(self.heap_bytes / cluster.cores_per_worker)
        rep_worker = worker_node(0)

        # --- phase 1: startup ---------------------------------------------------
        startup = ch.phase("startup", (_JOB_SUBMIT, self.startup_seconds))
        trace.record(MASTER, startup.t0, startup.t1, cpu=0.004, net_in=30e3, net_out=30e3)
        trace.set_memory(MASTER, 0.0, 8 * GB)
        trace.set_memory(rep_worker, 0.0, self.baseline_bytes)

        # --- phase 2: load graph into memory -------------------------------------
        text_bytes = scale.bytes_text(graph)
        load_time = hdfs.parallel_read_seconds(text_bytes, parts)
        # Parsing and object construction dominate raw disk speed.
        load_time += scale.edges(graph.num_half_edges) / (
            self.edge_rate * cluster.cores_per_worker
        ) / parts * 2.0
        graph_mem = (
            scale.edges(float(ctx.half_edges_per_part.max())) * self.bytes_per_half_edge
            + scale.vertices(float(ctx.vertices_per_part.max())) * self.bytes_per_vertex
        )
        if graph_mem > heap:
            if not self.out_of_core:
                raise self._heap_crash(graph_mem, 0.0, heap, stage="loading")
            # out-of-core loading: stream the overflow through disk
            load_time += (graph_mem - heap) / m.disk_write_bps
        # the input superstep is disk-bound HDFS streaming
        load = ch.phase("load", (_INPUT_SUPERSTEP, load_time))
        trace.record(
            rep_worker, load.t0, load.t1, cpu=cluster.cores_per_worker / m.cores,
            net_in=0.0, span=load.spans[0],
        )
        trace.set_memory(rep_worker, load.t1,
                         self.baseline_bytes + min(graph_mem, heap),
                         span=load.spans[0])
        trace.record(MASTER, load.t0, load.t1, cpu=0.002, net_in=15e3, net_out=15e3)

        # --- phase 3: supersteps ----------------------------------------------
        algo_combinable = getattr(algo, "combinable", False)
        cpu = min(cluster.cores_per_worker / m.cores, 1.0)
        num_vertices = max(graph.num_vertices, 1)

        def superstep_records(rows, step, used, num_active,
                              remote_received_mean, remote_sent_mean):
            frac_active = num_active / num_vertices
            # NIC view: only remote-origin messages cross the network
            # (received_bytes also counts locally-delivered messages,
            # which fill buffers but never leave the node), streamed
            # over the whole superstep window.
            rows.record(
                rep_worker, step.t0, step.t1,
                cpu=cpu * np.maximum(frac_active, 0.05),
                net_in=_per_second(remote_received_mean, step.total),
                net_out=_per_second(remote_sent_mean, step.total),
                span=step.spans[1],
            )
            rows.record(MASTER, step.t0, step.t1, cpu=0.003, net_in=25e3,
                        net_out=25e3)
            rows.set_memory(rep_worker, step.t0,
                            self.baseline_bytes + np.minimum(used, heap),
                            span=step.spans[1])
            if step.checkpoint is not None:
                ckpt = step.checkpoint
                rows.record(rep_worker, ckpt.t0, ckpt.t1, cpu=0.1,
                            net_out=1e5, span=ckpt.spans[0])

        for tab in ch.supersteps(
            prog, "supersteps", ("compute", "communication", "barrier"),
            ctx=ctx,
        ):
            # message buffer on the busiest receiver this superstep
            recv_max = tab.received_max
            remote_sent_max = tab.remote_sent_max
            msg_count_share = tab.messages_sum / parts
            if self.use_combiner and algo_combinable:
                # Combiner cap: one merged message per (destination
                # vertex, sending worker), for steps with a known
                # receiver count.  Per worker, each keeps at most one
                # merged message per distinct destination.
                combine_cap = np.where(
                    np.isnan(tab.distinct_receivers), np.inf,
                    scale.vertices(tab.distinct_receivers) * 16.0,
                )
                recv_max = np.minimum(recv_max, combine_cap)
                remote_sent_max = np.minimum(remote_sent_max, combine_cap)
                msg_count_share = np.minimum(msg_count_share,
                                             combine_cap / 16.0)
            msg_mem = (
                recv_max * self.payload_factor
                + msg_count_share * self.bytes_per_message
            )
            used = graph_mem + msg_mem
            over = used > heap
            spill, crash = 0.0, None
            if over.any():
                # out-of-core: overflow bytes round-trip the local disk
                spill = np.where(over, (used - heap) * (
                    1.0 / m.disk_write_bps + 1.0 / m.disk_read_bps
                ), 0.0)
                if not self.out_of_core:
                    crash = (over, lambda i: self._heap_crash(
                        graph_mem, msg_mem[i], heap,
                        stage=f"superstep {ch.superstep}",
                    ))
            net_bytes = np.maximum(remote_sent_max, recv_max)
            step = ch.steps(
                tab,
                (_VERTEX_COMPUTE, tab.compute_max / (
                    self.edge_rate * cluster.cores_per_worker
                )),
                (_MESSAGE_FLUSH, net_bytes / cluster.network_bps, spill,
                 {"net_bytes": net_bytes}),
                (_ZK_BARRIER, self.barrier_seconds),
                crash=crash,
                # Periodic fault-tolerance checkpoint: dump partition
                # state and pending messages to HDFS.
                checkpoint=None if self.checkpoint_interval <= 0 else (
                    _CHECKPOINT, used / m.disk_write_bps,
                    tab.number % self.checkpoint_interval == 0,
                ),
            )
            trace.rows(tab.rows, superstep_records, step, used, tab.num_active,
                       tab.remote_received_mean, tab.remote_sent_mean)

        # --- phase 4: write output ----------------------------------------------
        out_bytes = scale.vertices(prog.output_bytes())
        write = ch.phase(
            "write", (_HDFS_WRITE, hdfs.parallel_write_seconds(out_bytes, parts))
        )
        trace.record(rep_worker, write.t0, write.t0 + max(write.total, 1e-9),
                     cpu=0.1, span=write.spans[0])
        # crashes after the last barrier (during output) restart from
        # the last checkpoint like any other worker loss
        ch.recover("write")
        trace.set_memory(rep_worker, ch.t, self.baseline_bytes)
        return ch.result(algo, prog, graph, cluster)

    def _recover_crashes(
        self,
        faults: FaultInjector,
        since: float,
        t: float,
        last_ckpt_t: float,
        *,
        stage: str,
        tele,
    ) -> tuple[float, float]:
        """BSP worker-loss recovery over the window ``[since, t)``.

        With checkpointing on, each crash re-pays the superstep work
        since the last checkpoint barrier plus the coordinated restart
        latency; with checkpointing off (Giraph 0.2) the job dies.
        Returns ``(recovery_seconds, new_t)``.
        """
        recovered = 0.0
        while (crash := faults.next_crash(since, t)) is not None:
            if self.checkpoint_interval <= 0:
                raise PlatformCrash(
                    self.name,
                    stage,
                    f"worker {crash.node} lost at t={crash.at:.0f}s and "
                    "checkpointing is off (Giraph 0.2 default): "
                    "BSP job aborted",
                )
            recovery = self.restart_seconds + (t - last_ckpt_t)
            self._note_restart(faults, tele, crash, t, recovery,
                               "checkpoint_restart")
            t += recovery
            recovered += recovery
        return recovered, t

    def _heap_crash(self, graph_mem: float, msg_mem: float, heap: float,
                    *, stage: str) -> PlatformCrash:
        """The crash of a worker whose partition plus message buffers
        exceed the heap (out-of-core mode spills the overflow instead)."""
        used = graph_mem + msg_mem
        return PlatformCrash(
            self.name,
            stage,
            f"worker heap exhausted: needs {used / GB:.1f} GB "
            f"(partition {graph_mem / GB:.1f} GB + messages "
            f"{msg_mem / GB:.1f} GB) > {heap / GB:.1f} GB heap",
        )


def _per_second(nbytes: np.ndarray, seconds: np.ndarray) -> np.ndarray:
    """``nbytes / seconds``, 0 for zero-length steps."""
    return np.divide(nbytes, seconds, out=np.zeros(len(seconds)),
                     where=seconds != 0)
