"""``repro.serve`` — the long-running what-if prediction service.

The production framing of the paper's decision-support deliverable
("which platform, which cluster, at what cost, for this workload?" —
§V–VI): an asyncio HTTP server speaking the frozen :mod:`repro.api`
contract.  Every answer and every job comes from one
:class:`~repro.api.ApiService`; this package only adds what a server
needs on top of it — HTTP and background sweep jobs
(:mod:`~repro.serve.app`), queue-depth admission control
(:mod:`~repro.serve.admission`), request coalescing and batching
(:mod:`~repro.serve.batching`), the persistent worker processes that
compute misses (:mod:`~repro.serve.workers`), and a warm answer cache
(:mod:`~repro.serve.cache`).  ``graphbench serve`` is the CLI entry
point.  ``benchmarks/bench_serve_load.py`` is the open-loop load
smoke; the ``serve-whatif`` workload of ``perfbench/`` measures it.
"""

from repro.serve.admission import AdmissionController
from repro.serve.app import GraphbenchServer
from repro.serve.batching import RequestBatcher
from repro.serve.cache import AnswerCache
from repro.serve.workers import WorkerPool

__all__ = [
    "AdmissionController",
    "AnswerCache",
    "GraphbenchServer",
    "RequestBatcher",
    "WorkerPool",
]
