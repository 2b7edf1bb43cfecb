"""Iterative MapReduce execution (shared by Hadoop and YARN).

The paper's central observation about MapReduce graph processing
(Sections 3.1 and 4.1.1): every iteration is a separate job that

1. pays job scheduling/startup latency,
2. reads the **entire graph** from HDFS in the map phase,
3. shuffles the graph structure *plus* all messages through local
   disks and the network,
4. re-applies updates in the reduce phase, and
5. writes the entire graph state back to HDFS.

So execution time is roughly ``iterations x (startup + 2 x graph I/O +
shuffle)``, which is what makes the 68-iteration Amazon BFS the
paper's slowest cell and Hadoop "the worst performer in all cases".

The reducer's in-memory merge (1.5 GB, the paper's configuration) is
the crash site for STATS on DotaLeague: a single vertex's received
neighbor lists exceed the sort buffer.

Recovery semantics (fault injection): MapReduce is the most forgiving
platform in the matrix.  A node crash kills only the tasks running on
that node — the JobTracker / ResourceManager re-schedules them on the
surviving slots, costing one task-share of the job plus a relaunch
latency, bounded by a per-job retry budget (``mapred.map.max.attempts``
is 4).  Stragglers are absorbed by speculative re-execution: a backup
attempt caps the slowdown at one fresh task execution.  Degradation
windows (disk, network) stretch the overlapped phase.
"""

from __future__ import annotations

import heapq

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

__all__ = ["MapReduceEngine"]


#: cost rules: rule name, breakdown component, fault resource; Tc
#: sums all map work, then all reduce work, so the two compute rules
#: keep their own breakdown keys until :meth:`Charge.fold` adds them
_STARTUP = Rule("startup", "scheduling")
_HDFS_READ = Rule("hdfs_read", "read", "disk")
_MAP_CPU = Rule("map_cpu", "compute", "cpu", key="map")
_SPILL = Rule("spill", "shuffle", "disk")
_COPY = Rule("copy", "shuffle", "net")
_MERGE = Rule("merge", "shuffle", "disk")
_REDUCE_CPU = Rule("reduce_cpu", "compute", "cpu", key="reduce")
_HDFS_WRITE = Rule("hdfs_write", "write", "disk")


class MapReduceEngine(Platform):
    """Base class for the Hadoop-family platforms."""

    kind = "generic"

    # -- cost model -------------------------------------------------------------
    #: per-job scheduling latency: submission, task launch waves,
    #: completion polling (JobTracker/RM heartbeat granularity)
    job_startup_seconds = 45.0
    #: map/reduce record-processing rate per core (adjacency entries/s)
    edge_rate = 5e6
    #: in-memory merge budget at the reducers (paper: 1.5 GB)
    sort_buffer_bytes = 1.5 * GB
    #: Java expansion factor for a single in-memory record group
    record_memory_factor = 100.0
    #: extra jobs per iteration for algorithms needing a distinct
    #: convergence/creation job (paper: EVO runs two MR jobs/iteration)
    two_job_algorithms = ("evo",)
    #: baseline memory of a worker (OS + DataNode + TaskTracker)
    baseline_bytes = 2 * GB
    #: paper configuration: input block count pinned to the task-slot
    #: count, so every map phase completes in one wave (Section 3.1).
    #: Set False to split inputs at the HDFS block size instead: map
    #: task count then follows the data, and the map phase is scheduled
    #: over the slots in waves (:meth:`_wave_makespan`).
    pin_blocks_to_slots = True
    # -- recovery semantics (fault injection) ------------------------------
    #: per-job failed-task re-execution budget (Hadoop's
    #: ``mapred.map.max.attempts`` default)
    max_task_retries = 4
    #: JobTracker latency to detect the failure and relaunch the task
    retry_launch_seconds = 5.0
    #: backup attempts for stragglers (``mapred.*.tasks.speculative``)
    speculative_execution = True
    #: latency to launch a speculative backup attempt
    speculative_launch_seconds = 2.0

    @staticmethod
    def _wave_makespan(durations: list[float], slots: int) -> float:
        """Makespan of scheduling ``durations`` greedily, in order, over
        ``slots`` identical executors: each task starts on the slot
        that frees first."""
        free = [0.0] * max(slots, 1)
        for d in durations:
            heapq.heapreplace(free, free[0] + d)
        return max(free)

    def _container_check(
        self, split_bytes: float, heap: float, graph: Graph
    ) -> None:
        """Hook for YARN's stricter container enforcement (no-op here)."""

    def _speculate(
        self, faults: FaultInjector, t0: float, nominal: float
    ) -> tuple[float, float]:
        """Straggler handling with speculative re-execution: the charged
        phase duration plus the recovery seconds of a backup attempt.

        A backup attempt costs one fresh task execution plus launch
        latency; it is launched only when that beats riding out the
        slowdown, which caps a straggler's damage.
        """
        stretched, _ = super()._speculate(faults, t0, nominal)
        extra = stretched - nominal
        if extra <= 0.0 or not self.speculative_execution:
            return stretched, 0.0
        backup = nominal + self.speculative_launch_seconds
        if extra > backup:
            faults.note_speculative(backup)
            return nominal, backup
        return stretched, 0.0

    def _retry_crashed_tasks(
        self,
        faults: FaultInjector,
        t: float,
        job_time: float,
        *,
        startup: float,
        nodes: int,
        stage: str,
    ) -> tuple[list, list[float], float]:
        """Per-task retry recovery over the job window ``[t, t +
        job_time)``: only the dead node's share of the job re-runs —
        the JobTracker re-schedules its tasks on surviving slots — and
        each retry extends the window a later crash can land in, within
        the :attr:`max_task_retries` budget.

        Returns ``(crashes, retry_costs, job_time)`` with ``job_time``
        grown by every retry.  This is the recovery model the
        known-truth scenarios (:mod:`repro.des.known_truth`) drive
        directly against its closed form.
        """
        job_crashes: list = []
        job_retry_costs: list[float] = []
        while (crash := faults.next_crash(t, t + job_time)) is not None:
            job_crashes.append(crash)
            if len(job_crashes) > self.max_task_retries:
                raise PlatformCrash(
                    self.name,
                    stage,
                    f"task retry budget exhausted: "
                    f"{len(job_crashes)} node failures > "
                    f"{self.max_task_retries} attempts",
                )
            retry = (
                (job_time - startup) / nodes
                + self.retry_launch_seconds
            )
            faults.note_retry(retry)
            job_retry_costs.append(retry)
            job_time += retry
        return job_crashes, job_retry_costs, job_time

    def _recover_crashes(self, faults, since, t, last_ckpt_t, *, stage, tele):
        """Nothing is left at an iteration boundary: every crash inside
        a job's window was retried task by task while the job was
        charged (:meth:`_retry_crashed_tasks`)."""
        return 0.0, t

    def _execute(
        self,
        algo: Algorithm,
        prog: SuperstepProgram,
        graph: Graph,
        cluster: ClusterSpec,
        scale: ScaleModel,
        ch: Charge,
    ) -> JobResult:
        parts = cluster.num_workers * cluster.cores_per_worker  # task slots
        ctx = cached_context(graph, parts, "hash", scale)
        hdfs = HDFS(cluster)
        trace = ch.trace
        m = cluster.machine
        rep_worker = worker_node(0)
        heap = ch.memory_limit(cluster.worker_heap_bytes)
        sort_buffer = ch.memory_limit(self.sort_buffer_bytes)

        text_bytes = scale.bytes_text(graph)
        split_bytes = text_bytes / parts
        self._container_check(split_bytes, heap, graph)

        trace.set_memory(MASTER, 0.0, 8 * GB)
        trace.set_memory(rep_worker, 0.0, self.baseline_bytes)

        half_edges_scaled = scale.edges(graph.num_half_edges)
        # Disk and network are per-*node* resources: co-located task
        # slots share them (and contend a little — the paper's
        # "latency ... due to concurrent accesses to the disk").
        nodes = cluster.num_workers
        contention = 1.0 + 0.05 * (cluster.cores_per_worker - 1)
        cpu = min(cluster.cores_per_worker / m.cores, 1.0)
        jobs = 2 if algo.name in self.two_job_algorithms else 1
        startup = self.job_startup_seconds
        if self.pin_blocks_to_slots:
            # paper config: one map task per slot, single wave
            read = hdfs.parallel_read_seconds(text_bytes, nodes) * contention
            map_cpu = half_edges_scaled / parts / self.edge_rate
        else:
            # block-driven task count: waves over the slots
            n_tasks = hdfs.num_blocks(text_bytes)
            per_task_bytes = text_bytes / n_tasks
            per_task_cpu = half_edges_scaled / n_tasks / self.edge_rate
            per_task = (
                per_task_bytes / m.disk_read_bps * contention
                + per_task_cpu
            )
            makespan = self._wave_makespan([per_task] * n_tasks, parts)
            # keep the read/compute split for the breakdown
            io_frac = (per_task_bytes / m.disk_read_bps * contention) / per_task
            read = makespan * io_frac
            map_cpu = makespan * (1 - io_frac)

        def job_records(rows, job, remote_sent_sum):
            startup, read, map_cpu, spill, copy, merge, reduce_cpu, write = (
                job.seconds
            )
            copy_span = job.spans[4]
            # resource trace: idle during startup, busy during phases
            rows.record(MASTER, job.t0, job.t1, cpu=0.004, net_in=40e3,
                        net_out=40e3)
            t_map = job.t0 + startup
            rows.set_memory(rep_worker, t_map, self.baseline_bytes
                            + min(self.sort_buffer_bytes + split_bytes * 2, heap))
            t_shuffle = t_map + read + map_cpu + spill
            rows.record(rep_worker, t_map, t_shuffle, cpu=cpu, net_in=5e4)
            t_reduce = t_shuffle + copy + merge
            rows.record(rep_worker, t_shuffle, t_reduce, cpu=cpu * 0.3,
                        span=copy_span)
            # NIC view of the shuffle: only the *remote* slice of the
            # repartition crosses the network — messages by the hash
            # cut, graph state by the (nodes-1)/nodes reducer share —
            # and the fetchers stream it over the whole map-to-merge
            # window (shuffle overlaps the map phase), not in a
            # line-rate burst during the copy sub-phase alone.  The
            # local remainder of per_node_out is disk traffic and is
            # already charged to spill/copy/merge.
            per_node_remote = (
                (text_bytes * (nodes - 1) / nodes + remote_sent_sum)
                / nodes * contention
            ).repeat(jobs)
            shuffle_window = read + map_cpu + spill + copy + merge
            rate_net = per_node_remote / np.maximum(shuffle_window, 1e-9)
            rows.record(rep_worker, t_map, t_reduce,
                        net_in=rate_net, net_out=rate_net, span=copy_span)
            rows.record(rep_worker, t_reduce, t_reduce + reduce_cpu + write,
                        cpu=cpu)
            rows.set_memory(rep_worker, job.t1, self.baseline_bytes)

        for tab in ch.supersteps(
            prog, "iterations",
            ("scheduling", "read", "compute", "map", "reduce", "shuffle", "write"),
            ctx=ctx, stage="iteration", body_span=True,
        ):
            # Reducer record-group memory check (STATS neighbor lists).
            crash = None
            if tab.has_received.any():
                group_mem = (
                    scale.per_vertex_degree2(tab.max_received)
                    * self.record_memory_factor
                )
                crash = (tab.has_received & (group_mem > sort_buffer),
                         lambda i: PlatformCrash(
                    self.name,
                    f"iteration {ch.superstep} reduce",
                    "in-memory merge exhausted: one vertex's grouped "
                    f"values need {group_mem[i] / GB:.1f} GB "
                    f"> {sort_buffer / GB:.1f} GB sort buffer",
                ))
            per_node_out = (text_bytes + tab.sent_sum) / nodes * contention
            # Degradation windows stretch the overlapped phase;
            # straggler slowdown on the compute phases is capped by
            # speculative re-execution, and crashed tasks re-run.
            job = ch.steps(
                tab,
                (_STARTUP, startup),
                (_HDFS_READ, read),
                (_MAP_CPU, map_cpu),
                (_SPILL, per_node_out / m.disk_write_bps),
                (_COPY, per_node_out / min(cluster.network_bps, m.disk_read_bps)),
                (_MERGE, per_node_out / m.disk_read_bps),
                (_REDUCE_CPU, half_edges_scaled / parts / self.edge_rate * 0.5),
                (_HDFS_WRITE,
                 hdfs.parallel_write_seconds(text_bytes, nodes) * contention),
                crash=crash,
                repeat=jobs,
                retry=(startup, nodes),
                budget=True,
            )
            trace.rows(len(job.t0), job_records, job, tab.remote_sent_sum)

        ch.fold("compute", "map", "reduce")
        return ch.result(algo, prog, graph, cluster)
