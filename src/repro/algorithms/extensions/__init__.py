"""Extension algorithms beyond the paper's five exemplars.

The paper's algorithm survey (Table 3) identifies more classes than the
five it benchmarks; its successor suite (LDBC Graphalytics) later
standardized several of them.  This package implements the most-used
ones as superstep programs so they plug into every platform model:

=============  ========================================================
code           algorithm (survey class)
=============  ========================================================
``pagerank``   PageRank — searching for important vertices
``sssp``       single-source shortest paths — graph traversal
``triangles``  triangle counting — general statistics / triangulation
``diameter``   double-sweep diameter estimation — general statistics
``mis``        Luby's maximal independent set — connected components
``sampling``   random-walk vertex sampling — the survey's "other" class
=============  ========================================================

Importing this package registers all six with
:func:`repro.algorithms.base.get_algorithm`.
"""

from repro.algorithms.extensions.diameter import DIAMETER, estimate_diameter
from repro.algorithms.extensions.mis import MIS, maximal_independent_set
from repro.algorithms.extensions.pagerank import PAGERANK
from repro.algorithms.extensions.sampling import SAMPLING, random_walk_sample
from repro.algorithms.extensions.sssp import SSSP
from repro.algorithms.extensions.triangles import TRIANGLES, triangle_count

__all__ = [
    "DIAMETER",
    "MIS",
    "PAGERANK",
    "SAMPLING",
    "SSSP",
    "TRIANGLES",
    "estimate_diameter",
    "maximal_independent_set",
    "random_walk_sample",
    "triangle_count",
]
