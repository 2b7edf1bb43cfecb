"""The superstep kernels: one plain-numpy implementation each.

The measured hot path of every sweep, benchmark, and chaos run is a
handful of per-superstep kernels: the weighted per-part bincount behind
:class:`~repro.platforms.base.WorkerStepCosts`, the shared cut-arc edge
pass behind the remote-degree arrays, frontier expansion in the
BFS/CONN/SSSP recording loops, and the LDG streaming-partitioner inner
loop.  They live in :mod:`repro.kernels.dispatch`, each checked against
an independent loop oracle in ``tests/test_kernels.py``.
"""

from repro.kernels.dispatch import active_backend

__all__ = ["active_backend"]
