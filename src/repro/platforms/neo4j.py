"""Neo4j platform model (version 1.5, single machine; paper Section 3.1).

Three behaviours from the paper are modelled explicitly:

* **Two-level cache, cold vs. hot runs** (Section 4.1.1): the first
  (cold) execution pays random store reads — one disk seek per
  traversal jump, amortized by graph locality — while hot runs serve
  the working set from the object cache.  Citation's cold/hot ratio is
  ~45, DotaLeague's ~5.
* **Lazy reads**: only the graph data an algorithm touches is read, so
  low-coverage BFS (Citation, 0.1 %) is fast even cold.
* **Object-cache thrashing**: when the node+relationship object cache
  outgrows the 20 GB heap, every touched record risks a page fault —
  the paper's 17-hour hot-cache BFS on Synth.

Ingestion (Table 6) is transactional and dominated by per-node record
and index costs — hours, irregular across datasets, in stark contrast
to HDFS's linear seconds.

Recovery semantics (fault injection): there is exactly one node, so a
crash means rebooting the database and re-running the query from the
start (the embedded API has no mid-traversal checkpoints).  Network
partitions are a no-op — nothing crosses a network.  A shrunken heap
(memory-ceiling fault) lowers the thrashing threshold instead of
killing the process: Neo4j degrades to page-faulting rather than
OOM-ing (Section 4.1.1's 17-hour Synth BFS).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import Algorithm, SuperstepProgram
from repro.cluster.monitoring import worker_node
from repro.cluster.spec import GB, ClusterSpec
from repro.graph.graph import Graph
from repro.platforms.base import Charge, JobResult, Platform, Rule
from repro.platforms.scale import ScaleModel

__all__ = ["Neo4j"]


#: cost rules: rule name, breakdown component, fault resource
_QUERY_START = Rule("query_start", "startup")
_TRAVERSAL_OPS = Rule("traversal_ops", "compute", "cpu")
_CACHE_THRASH = Rule("cache_thrash", "thrash", "disk")
_STORE_READ = Rule("store_read", "cold_read", "disk")


class Neo4j(Platform):
    """Graph-specific, non-distributed (embedded graph database)."""

    name = "neo4j"
    label = "Neo4j"
    kind = "graph"
    distributed = False
    #: the paper let Neo4j jobs run up to ~20 hours before giving up
    default_timeout = 20 * 3600.0

    # -- cost model ---------------------------------------------------------
    #: java heap (paper configuration)
    heap_bytes = 20 * GB
    #: store bytes per relationship record (cold reads)
    store_bytes_per_edge = 33.0
    #: object-cache footprint per relationship / node (Java objects)
    object_bytes_per_edge = 320.0
    object_bytes_per_vertex = 1000.0
    #: per-algorithm operation rates (operations/second, hot cache)
    op_rates = {
        "bfs": 3e6,  # pure traversal
        "conn": 2e5,  # traversal + label comparison/update
        "cd": 6e3,  # property reads + transactional score writes
        "stats": 1.4e6,  # neighborhood intersection reads
        "evo": 5e4,  # transactional edge creation
    }
    #: fixed query/session startup
    query_start_seconds = 0.5
    #: page-fault service time when the object cache thrashes
    miss_penalty_seconds = 0.0075
    #: ingestion: per-record transactional costs (fit to Table 6)
    ingest_seconds_per_vertex = 0.0258
    ingest_seconds_per_edge = 0.00023
    # -- recovery semantics (fault injection) ------------------------------
    #: database reboots tolerated before the run is declared dead
    max_job_restarts = 2
    #: store recovery + JVM warmup per reboot
    restart_seconds = 60.0
    #: cost rule of a database reboot
    restart_rule = "node_reboot"

    def object_cache_bytes(self, graph: Graph, scale: ScaleModel) -> float:
        """Paper-scale full object-cache footprint."""
        return (
            scale.edges(graph.num_edges) * self.object_bytes_per_edge
            + scale.vertices(graph.num_vertices) * self.object_bytes_per_vertex
        )

    def thrash_probability(
        self, graph: Graph, scale: ScaleModel,
        heap_bytes: float | None = None,
    ) -> float:
        """Fraction of record touches that page-fault once the object
        cache exceeds the heap (0 when everything fits)."""
        heap = self.heap_bytes if heap_bytes is None else heap_bytes
        need = self.object_cache_bytes(graph, scale)
        if need <= heap:
            return 0.0
        return 1.0 - heap / need

    def ingest_seconds(self, graph: Graph, cluster: ClusterSpec | None = None) -> float:
        """Transactional import into the Neo4j store (Table 6, row 2)."""
        scale = ScaleModel.for_graph(graph)
        return (
            scale.vertices(graph.num_vertices) * self.ingest_seconds_per_vertex
            + scale.edges(graph.num_edges) * self.ingest_seconds_per_edge
        )

    def _execute(
        self,
        algo: Algorithm,
        prog: SuperstepProgram,
        graph: Graph,
        cluster: ClusterSpec,
        scale: ScaleModel,
        ch: Charge,
        *,
        cache: str = "hot",
    ) -> JobResult:
        if cache not in ("hot", "cold"):
            raise ValueError(f"cache must be 'hot' or 'cold', got {cache!r}")
        trace = ch.trace
        node = worker_node(0)
        m = cluster.machine
        rate = self.op_rates.get(algo.name, 1e6)
        heap = ch.memory_limit(self.heap_bytes)
        p_miss = self.thrash_probability(graph, scale, heap)

        trace.set_memory(node, 0.0, 2 * GB)
        ch.phase("startup", (_QUERY_START, self.query_start_seconds))
        touched = np.zeros(graph.num_vertices, dtype=bool)
        touched_ops_scaled = 0.0

        def superstep_records(rows, step):
            rows.record(node, step.t0, step.t0 + np.maximum(step.total, 1e-9),
                        cpu=1.0 / m.cores, span=step.spans[0])

        for tab in ch.supersteps(
            prog, "traversal", ("compute", "thrash", "cold_read")
        ):
            step_ops = tab.compute_total * np.where(
                tab.compute_quadratic, scale.quadratic_mult, scale.e_mult
            )
            touched_ops_scaled = _running_sum(touched_ops_scaled, step_ops)
            for report in tab.reports:
                report.touch(touched)
            step = ch.steps(
                tab,
                (_TRAVERSAL_OPS, step_ops / rate),
                (_CACHE_THRASH, step_ops * p_miss * self.miss_penalty_seconds),
            )
            trace.rows(tab.rows, superstep_records, step)

        if cache == "cold":
            # Lazy reads: only the touched slice of the store comes off
            # disk; random jumps pay seeks, amortized by graph locality
            # (dense graphs keep traversals within co-located records).
            touched_vertices = scale.vertices(float(np.count_nonzero(touched)))
            touched_bytes = touched_ops_scaled * self.store_bytes_per_edge
            from repro.graph.properties import average_degree

            d = average_degree(graph) * scale.d_mult
            locality = 1.0 / (1.0 + d / 400.0)
            cold = ch.phase("cold_read", (_STORE_READ, (
                touched_bytes / m.disk_read_bps
                + touched_vertices * m.disk_seek_seconds * locality
            )), budget=True)
            trace.record(node, self.query_start_seconds,
                         self.query_start_seconds + cold.total, cpu=0.02,
                         span=cold.spans[0])

        ch.recover("traversal")
        # working-set memory in the object cache
        hot_bytes = min(self.object_cache_bytes(graph, scale), heap)
        trace.set_memory(node, ch.t, 2 * GB + hot_bytes * 0.8)
        return ch.result(algo, prog, graph, cluster)

    def _default_cluster(self) -> ClusterSpec:
        """Single machine (the paper runs Neo4j on one node)."""
        return ClusterSpec(num_workers=1)

    def _pop_exec_params(self, params: dict[str, object]) -> dict[str, object]:
        """``cache`` selects cold or hot execution (the paper reports
        hot-cache averages in Figure 1); it parameterizes the cost
        model, not the algorithm."""
        return {"cache": params.pop("cache", "hot")}


def _running_sum(start: float, values: np.ndarray) -> float:
    """``start`` plus each of ``values`` in turn: a sequential
    ``np.cumsum``, the order of a running total (``np.sum`` is pairwise
    and would differ in the last bits)."""
    run = np.empty(len(values) + 1)
    run[0] = start
    run[1:] = values
    return float(np.cumsum(run)[-1])
