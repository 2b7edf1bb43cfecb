"""Forest Fire burning (Leskovec, Kleinberg, Faloutsos 2005).

The substrate of the paper's EVO algorithm (Algorithm 5), which grows
an existing graph by Forest Fire burning (:mod:`repro.algorithms.evo`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["burn"]


def burn(
    out_adj: list[list[int]],
    in_adj: list[list[int]],
    ambassador: int,
    *,
    p_forward: float,
    p_backward: float,
    rng: np.random.Generator,
    max_nodes: int | None = None,
) -> list[int]:
    """Run one Forest Fire burn from ``ambassador``.

    Returns the list of burned vertices (excluding the ambassador).
    Burning: from each visited vertex, sample x ~ Geometric(1 - p) out
    links and y ~ Geometric(1 - r*p) in links among unburned neighbors,
    recursing in BFS order (Leskovec et al., Section 4).
    """
    burned = {ambassador}
    frontier = [ambassador]
    order: list[int] = []
    # Geometric means used by the paper's Algorithm 5: (1-p)^-1 and
    # (1-r*p)^-1; numpy's geometric(q) has mean 1/q.
    q_fwd = max(1.0 - p_forward, 1e-12)
    q_bwd = max(1.0 - p_backward * p_forward, 1e-12)
    while frontier:
        next_frontier: list[int] = []
        for v in frontier:
            x = int(rng.geometric(q_fwd)) - 1  # 0-based burn count
            y = int(rng.geometric(q_bwd)) - 1
            outs = [w for w in out_adj[v] if w not in burned]
            ins = [w for w in in_adj[v] if w not in burned]
            if outs:
                picked = rng.permutation(len(outs))[: max(x, 0)]
                for idx in picked:
                    w = outs[idx]
                    if w not in burned:
                        burned.add(w)
                        order.append(w)
                        next_frontier.append(w)
            if ins:
                picked = rng.permutation(len(ins))[: max(y, 0)]
                for idx in picked:
                    w = ins[idx]
                    if w not in burned:
                        burned.add(w)
                        order.append(w)
                        next_frontier.append(w)
            if max_nodes is not None and len(order) >= max_nodes:
                return order[:max_nodes]
        frontier = next_frontier
    return order

