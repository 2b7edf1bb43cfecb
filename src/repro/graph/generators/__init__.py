"""Synthetic graph generators.

All generators are deterministic given a seed and return
:class:`~repro.graph.graph.Graph` objects.  They cover both the paper's
synthetic dataset (Graph500 Kronecker) and the structure-matched
stand-ins for the six real-world datasets (see
:mod:`repro.datasets.synthesize`).
"""

from repro.graph.generators.community import planted_partition
from repro.graph.generators.dag import citation_dag
from repro.graph.generators.kronecker import graph500_kronecker, rmat_edges
from repro.graph.generators.powerlaw import hub_graph
from repro.graph.generators.preferential import preferential_attachment
from repro.graph.generators.random_graphs import erdos_renyi

__all__ = [
    "citation_dag",
    "erdos_renyi",
    "graph500_kronecker",
    "hub_graph",
    "planted_partition",
    "preferential_attachment",
    "rmat_edges",
]
