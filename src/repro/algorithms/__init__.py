"""The paper's five algorithm classes (Section 2.2.2).

===========  =====================================================
code         algorithm
===========  =====================================================
``stats``    General statistics: |V|, |E|, mean local clustering
             coefficient (Algorithm 1)
``bfs``      Breadth-first search from a source vertex (Algorithm 2)
``conn``     Connected components by min-label propagation, after
             Wu & Du (Algorithm 3)
``cd``       Community detection by weighted label propagation with
             hop-score attenuation, after Leung et al. (Algorithm 4)
``evo``      Graph evolution by the Forest Fire model, after
             Leskovec et al. (Algorithm 5)
===========  =====================================================

Each algorithm exposes two faces:

* a **reference implementation** (plain vectorized numpy) used for
  ground truth, and
* a **superstep program** (:class:`~repro.algorithms.base.SuperstepProgram`)
  that executes the same computation iteration-by-iteration while
  reporting per-vertex activity, per-vertex message counts, and
  message bytes — the workload signals every platform model charges
  its own costs against.
"""

from repro.algorithms.base import (
    ALGORITHM_NAMES,
    Algorithm,
    AlgorithmResult,
    SuperstepProgram,
    SuperstepReport,
    get_algorithm,
)
from repro.algorithms.bfs import BFS, bfs_levels
from repro.algorithms.cd import CD, community_detection_labels
from repro.algorithms.conn import CONN
from repro.algorithms.evo import EVO
from repro.algorithms.stats import STATS, graph_statistics

__all__ = [
    "ALGORITHM_NAMES",
    "Algorithm",
    "AlgorithmResult",
    "BFS",
    "CD",
    "CONN",
    "EVO",
    "STATS",
    "SuperstepProgram",
    "SuperstepReport",
    "bfs_levels",
    "community_detection_labels",
    "get_algorithm",
    "graph_statistics",
]
