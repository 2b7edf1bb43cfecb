"""Hub-dominated graphs.

:func:`hub_graph` plants a handful of extreme hubs over a sparse
background — the structural fingerprint of the paper's WikiTalk
dataset (discussion pages: a few admins talk to millions of users),
which is what makes Giraph's STATS run OOM on it (Section 4.1.2).
"""

from __future__ import annotations

import numpy as np

from repro.graph.builder import from_edges
from repro.graph.graph import Graph

__all__ = ["hub_graph"]


def hub_graph(
    num_vertices: int,
    num_hubs: int,
    hub_degree: int,
    *,
    background_edges: int = 0,
    directed: bool = True,
    seed: int = 1,
    name: str = "hubs",
) -> Graph:
    """A star-burst graph: ``num_hubs`` hubs touching ``hub_degree``
    uniformly random vertices each, plus optional uniform background
    edges.

    For directed graphs the spokes point hub -> leaf with a small
    reverse fraction, mimicking talk-page reply structure.
    """
    if num_hubs >= num_vertices:
        raise ValueError("need more vertices than hubs")
    rng = np.random.default_rng(seed)
    chunks: list[np.ndarray] = []
    hubs = np.arange(num_hubs, dtype=np.int64)
    for h in hubs:
        leaves = rng.integers(num_hubs, num_vertices, size=hub_degree, dtype=np.int64)
        spokes = np.column_stack([np.full(hub_degree, h, dtype=np.int64), leaves])
        if directed:
            flip = rng.random(hub_degree) < 0.15
            spokes[flip] = spokes[flip][:, ::-1]
        chunks.append(spokes)
    if background_edges:
        bg = rng.integers(0, num_vertices, size=(background_edges, 2), dtype=np.int64)
        chunks.append(bg)
    # A sparse ring keeps the graph weakly connected so that largest-
    # component extraction does not throw most of it away.
    ring_src = np.arange(num_vertices, dtype=np.int64)
    ring = np.column_stack([ring_src, (ring_src + 1) % num_vertices])
    chunks.append(ring)
    edges = np.vstack(chunks)
    return from_edges(num_vertices, edges, directed=directed, name=name)
