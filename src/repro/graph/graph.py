"""The CSR graph container.

A :class:`Graph` stores adjacency in compressed-sparse-row form:
``out_indptr``/``out_indices`` for out-edges and, for directed graphs,
``in_indptr``/``in_indices`` for in-edges.  Undirected graphs store
each edge in both endpoint rows (the logical edge count
:attr:`Graph.num_edges` still counts it once, matching the paper's
Table 2 numbers).

All arrays are contiguous; per-vertex neighbor lists are *views* into
the index arrays (no copies), following the numpy guidance in the
project's HPC coding guides.
"""

from __future__ import annotations


import numpy as np

__all__ = ["Graph"]


class Graph:
    """An immutable directed or undirected graph in CSR form.

    Construct via :func:`repro.graph.builder.from_edges` rather than
    directly; the constructor only validates pre-built CSR arrays.

    Parameters
    ----------
    num_vertices:
        Number of vertices; identifiers are ``0..num_vertices-1``.
    out_indptr, out_indices:
        CSR row pointers and column indices for out-adjacency
        (for undirected graphs: full adjacency).
    in_indptr, in_indices:
        CSR arrays for in-adjacency.  Required iff ``directed``.
    directed:
        Directivity flag (paper Table 2 column).
    name:
        Optional label used in reports.
    """

    __slots__ = (
        "num_vertices",
        "directed",
        "name",
        "out_indptr",
        "out_indices",
        "in_indptr",
        "in_indices",
        "_num_edges",
        "_degree_cache",
        "_text_size",
    )

    def __init__(
        self,
        num_vertices: int,
        out_indptr: np.ndarray,
        out_indices: np.ndarray,
        *,
        directed: bool,
        in_indptr: np.ndarray | None = None,
        in_indices: np.ndarray | None = None,
        name: str = "graph",
    ) -> None:
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        out_indptr = np.ascontiguousarray(out_indptr, dtype=np.int64)
        out_indices = np.ascontiguousarray(out_indices, dtype=np.int32)
        if out_indptr.shape != (num_vertices + 1,):
            raise ValueError(
                f"out_indptr must have length num_vertices+1 "
                f"({num_vertices + 1}), got {out_indptr.shape}"
            )
        if out_indptr[0] != 0 or out_indptr[-1] != len(out_indices):
            raise ValueError("out_indptr endpoints do not match out_indices length")
        if np.any(np.diff(out_indptr) < 0):
            raise ValueError("out_indptr must be non-decreasing")
        if len(out_indices) and (
            out_indices.min() < 0 or out_indices.max() >= num_vertices
        ):
            raise ValueError("out_indices contains out-of-range vertex ids")

        self.num_vertices = int(num_vertices)
        self.directed = bool(directed)
        self.name = name
        self.out_indptr = out_indptr
        self.out_indices = out_indices

        if directed:
            if in_indptr is None or in_indices is None:
                raise ValueError("directed graphs require in-adjacency CSR arrays")
            in_indptr = np.ascontiguousarray(in_indptr, dtype=np.int64)
            in_indices = np.ascontiguousarray(in_indices, dtype=np.int32)
            if in_indptr.shape != (num_vertices + 1,):
                raise ValueError("in_indptr must have length num_vertices+1")
            if in_indptr[-1] != len(in_indices) or in_indptr[0] != 0:
                raise ValueError("in_indptr endpoints do not match in_indices length")
            if len(in_indices) != len(out_indices):
                raise ValueError(
                    "directed graph must have equal in- and out-edge counts"
                )
            self.in_indptr = in_indptr
            self.in_indices = in_indices
            self._num_edges = int(len(out_indices))
        else:
            if in_indptr is not None or in_indices is not None:
                raise ValueError("undirected graphs must not pass in-adjacency")
            if len(out_indices) % 2 != 0:
                raise ValueError(
                    "undirected adjacency must contain each edge twice "
                    "(odd half-edge count found)"
                )
            # Undirected: in-adjacency is out-adjacency.
            self.in_indptr = out_indptr
            self.in_indices = out_indices
            self._num_edges = int(len(out_indices) // 2)

        # Degree arrays are pure CSR structure; algorithms ask for them
        # every superstep, so compute each once and hand out a frozen
        # (non-writeable) array instead of re-diffing indptr.
        self._degree_cache: dict[str, np.ndarray] = {}
        self._text_size: int | None = None

    def _cached_degree(self, kind: str) -> np.ndarray:
        arr = self._degree_cache.get(kind)
        if arr is None:
            if kind == "out":
                arr = np.diff(self.out_indptr)
            elif kind == "in":
                arr = np.diff(self.in_indptr)
            else:  # total
                arr = (
                    self._cached_degree("out") + self._cached_degree("in")
                    if self.directed
                    else self._cached_degree("out")
                )
            arr = np.ascontiguousarray(arr)
            arr.setflags(write=False)
            self._degree_cache[kind] = arr
        return arr

    # -- basic accessors ------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Logical edge count (undirected edges counted once)."""
        return self._num_edges

    @property
    def num_half_edges(self) -> int:
        """Stored adjacency entries (2E for undirected, E for directed)."""
        return int(len(self.out_indices))

    def out_degree(self, v: int | None = None) -> np.ndarray | int:
        """Out-degree of ``v``, or the full (cached, read-only) array."""
        if v is None:
            return self._cached_degree("out")
        return int(self.out_indptr[v + 1] - self.out_indptr[v])

    def in_degree(self, v: int | None = None) -> np.ndarray | int:
        """In-degree of ``v``, or the full (cached, read-only) array."""
        if v is None:
            return self._cached_degree("in")
        return int(self.in_indptr[v + 1] - self.in_indptr[v])

    def degree(self, v: int | None = None) -> np.ndarray | int:
        """Total degree (undirected: neighbor count; directed: in+out)."""
        if v is None:
            return self._cached_degree("total")
        if self.directed:
            return self.out_degree(v) + self.in_degree(v)
        return self.out_degree(v)

    def neighbors(self, v: int) -> np.ndarray:
        """Out-neighbors of ``v`` (a zero-copy view)."""
        return self.out_indices[self.out_indptr[v] : self.out_indptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """In-neighbors of ``v`` (equals :meth:`neighbors` if undirected)."""
        return self.in_indices[self.in_indptr[v] : self.in_indptr[v + 1]]

    def edges(self) -> np.ndarray:
        """Return an ``(m, 2)`` int array of directed arcs (u, v).

        For undirected graphs each edge appears once with ``u <= v``.
        """
        src = np.repeat(
            np.arange(self.num_vertices, dtype=np.int32), np.diff(self.out_indptr)
        )
        dst = self.out_indices
        if not self.directed:
            keep = src <= dst
            src, dst = src[keep], dst[keep]
        return np.column_stack([src, dst])

    # -- memory / size accounting ----------------------------------------------
    @property
    def nbytes(self) -> int:
        """In-memory footprint of the CSR arrays."""
        n = self.out_indptr.nbytes + self.out_indices.nbytes
        if self.directed:
            n += self.in_indptr.nbytes + self.in_indices.nbytes
        return n

    def text_size_bytes(self) -> int:
        """Estimated on-disk size in the paper's plain-text format.

        Counts digits of every vertex id occurrence plus separators —
        close enough to drive the paper's size-dependent ingestion and
        HDFS block accounting without materializing the file.  Every
        platform run asks for it, so it is computed once per graph.
        """
        if self._text_size is None:
            self._text_size = self._count_text_size()
        return self._text_size

    def _count_text_size(self) -> int:
        def digits(arr: np.ndarray) -> int:
            if len(arr) == 0:
                return 0
            safe = np.maximum(arr.astype(np.int64), 1)
            return int(np.sum(np.floor(np.log10(safe)).astype(np.int64) + 1))

        ids = np.arange(self.num_vertices, dtype=np.int64)
        total = digits(ids)  # the id column
        total += digits(self.out_indices.astype(np.int64))
        separators = len(self.out_indices) + self.num_vertices  # commas + tab
        if self.directed:
            total += digits(self.in_indices.astype(np.int64))
            separators += len(self.in_indices) + self.num_vertices
        total += separators + self.num_vertices  # newlines
        return total

    # -- conversions -------------------------------------------------------------
    def to_scipy(self, direction: str = "out"):
        """Adjacency as a ``scipy.sparse.csr_matrix`` of 1s."""
        from scipy.sparse import csr_matrix

        if direction == "out":
            indptr, indices = self.out_indptr, self.out_indices
        elif direction == "in":
            indptr, indices = self.in_indptr, self.in_indices
        else:
            raise ValueError(f"direction must be 'out' or 'in', got {direction!r}")
        data = np.ones(len(indices), dtype=np.int8)
        return csr_matrix(
            (data, indices, indptr), shape=(self.num_vertices, self.num_vertices)
        )

    def to_networkx(self):
        """Convert to a networkx (Di)Graph — for tests and ground truth."""
        import networkx as nx

        g = nx.DiGraph() if self.directed else nx.Graph()
        g.add_nodes_from(range(self.num_vertices))
        src = np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), np.diff(self.out_indptr)
        )
        g.add_edges_from(zip(src.tolist(), self.out_indices.tolist()))
        return g

    def reverse_view(self) -> "Graph":
        """For directed graphs, the graph with all arcs flipped."""
        if not self.directed:
            return self
        return Graph(
            self.num_vertices,
            self.in_indptr,
            self.in_indices,
            directed=True,
            in_indptr=self.out_indptr,
            in_indices=self.out_indices,
            name=f"{self.name}(reversed)",
        )

    def as_undirected(self) -> "Graph":
        """Collapse a directed graph to its undirected skeleton."""
        if not self.directed:
            return self
        from repro.graph.builder import from_edges

        src = np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), np.diff(self.out_indptr)
        )
        edges = np.column_stack([src, self.out_indices.astype(np.int64)])
        return from_edges(
            self.num_vertices, edges, directed=False, name=f"{self.name}(und)"
        )

    # -- dunder -----------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.directed == other.directed
            and self.num_vertices == other.num_vertices
            and np.array_equal(self.out_indptr, other.out_indptr)
            and np.array_equal(self.out_indices, other.out_indices)
            and (
                not self.directed
                or (
                    np.array_equal(self.in_indptr, other.in_indptr)
                    and np.array_equal(self.in_indices, other.in_indices)
                )
            )
        )

    def __hash__(self) -> int:  # Graphs are mutable-array holders; identity hash
        return id(self)

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (
            f"<Graph {self.name!r} {kind} |V|={self.num_vertices:,} "
            f"|E|={self.num_edges:,}>"
        )
